package codegen

import (
	"fmt"

	"hatrpc/internal/idl"
)

// genService emits the handler interface, typed client, processor, and
// hint table for one service.
func (g *gen) genService(svc *idl.Service) error {
	if svc.Extends != "" {
		return fmt.Errorf("codegen: service inheritance (%s extends %s) is not supported", svc.Name, svc.Extends)
	}
	for _, fn := range svc.Functions {
		g.genArgsStruct(svc, fn)
		if !fn.Oneway {
			g.genResultStruct(svc, fn)
		}
	}
	g.genHandlerInterface(svc)
	g.genClient(svc)
	g.genProcessor(svc)
	g.genHintTable(svc)
	return nil
}

func argsStructName(svc *idl.Service, fn *idl.Function) string {
	return fmt.Sprintf("%s%sArgs", lowerFirst(svc.Name), goName(fn.Name))
}

func resultStructName(svc *idl.Service, fn *idl.Function) string {
	return fmt.Sprintf("%s%sResult", lowerFirst(svc.Name), goName(fn.Name))
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]|0x20) + s[1:]
}

// genArgsStruct emits the internal argument carrier as a synthetic IDL
// struct.
func (g *gen) genArgsStruct(svc *idl.Service, fn *idl.Function) {
	s := &idl.Struct{Name: argsStructName(svc, fn), Fields: fn.Args}
	g.genPlainStruct(s)
}

// genResultStruct emits the internal result carrier: field 0 success (if
// non-void) plus the declared throws fields.
func (g *gen) genResultStruct(svc *idl.Service, fn *idl.Function) {
	name := resultStructName(svc, fn)
	g.pf("type %s struct {\n", name)
	if fn.Returns != nil {
		g.pf("\tSuccess %s\n", g.goType(fn.Returns))
		g.pf("\tSuccessSet bool\n")
	}
	for _, th := range fn.Throws {
		g.pf("\t%s %s\n", goName(th.Name), g.goType(th.Type))
	}
	g.pf("}\n\n")

	// Write
	g.pf("func (x *%s) Write(p thrift.TProtocol) error {\n", name)
	g.pf("\tif err := p.WriteStructBegin(%q); err != nil {\n\t\treturn err\n\t}\n", name)
	if fn.Returns != nil {
		g.pf("\tif x.SuccessSet {\n")
		g.pf("\t\tif err := p.WriteFieldBegin(\"success\", %s, 0); err != nil {\n\t\t\treturn err\n\t\t}\n", g.ttype(fn.Returns))
		g.genWriteValue("x.Success", fn.Returns, 2)
		g.pf("\t\tif err := p.WriteFieldEnd(); err != nil {\n\t\t\treturn err\n\t\t}\n")
		g.pf("\t}\n")
	}
	for _, th := range fn.Throws {
		g.pf("\tif x.%s != nil {\n", goName(th.Name))
		g.pf("\t\tif err := p.WriteFieldBegin(%q, %s, %d); err != nil {\n\t\t\treturn err\n\t\t}\n", th.Name, g.ttype(th.Type), th.ID)
		g.genWriteValue("x."+goName(th.Name), th.Type, 2)
		g.pf("\t\tif err := p.WriteFieldEnd(); err != nil {\n\t\t\treturn err\n\t\t}\n")
		g.pf("\t}\n")
	}
	g.pf("\tif err := p.WriteFieldStop(); err != nil {\n\t\treturn err\n\t}\n")
	g.pf("\treturn p.WriteStructEnd()\n}\n\n")

	// Read
	g.pf("func (x *%s) Read(p thrift.TProtocol) error {\n", name)
	g.pf("\tif _, err := p.ReadStructBegin(); err != nil {\n\t\treturn err\n\t}\n")
	g.pf("\tfor {\n")
	g.pf("\t\t_, ft, id, err := p.ReadFieldBegin()\n")
	g.pf("\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n")
	g.pf("\t\tif ft == thrift.STOP {\n\t\t\tbreak\n\t\t}\n")
	if fn.Returns == nil && len(fn.Throws) == 0 {
		g.pf("\t\t_ = id\n")
	}
	g.pf("\t\tswitch {\n")
	if fn.Returns != nil {
		g.pf("\t\tcase id == 0 && ft == %s:\n", g.ttype(fn.Returns))
		g.genReadValue("x.Success", fn.Returns, 3)
		g.pf("\t\t\tx.SuccessSet = true\n")
	}
	for _, th := range fn.Throws {
		g.pf("\t\tcase id == %d && ft == %s:\n", th.ID, g.ttype(th.Type))
		g.genReadValue("x."+goName(th.Name), th.Type, 3)
	}
	g.pf("\t\tdefault:\n\t\t\tif err := thrift.Skip(p, ft); err != nil {\n\t\t\t\treturn err\n\t\t\t}\n")
	g.pf("\t\t}\n")
	g.pf("\t\tif err := p.ReadFieldEnd(); err != nil {\n\t\t\treturn err\n\t\t}\n")
	g.pf("\t}\n")
	g.pf("\treturn p.ReadStructEnd()\n}\n\n")
}

// genPlainStruct emits a non-exported struct with Write/Read (args
// carriers).
func (g *gen) genPlainStruct(s *idl.Struct) {
	g.pf("type %s struct {\n", s.Name)
	for _, f := range s.Fields {
		g.pf("\t%s %s\n", goName(f.Name), g.goType(f.Type))
	}
	g.pf("}\n\n")
	g.genStructWrite(s)
	g.genStructRead(s)
}

// fnSignature renders the Go signature pieces for a function.
func (g *gen) fnParams(fn *idl.Function) string {
	var parts []string
	for _, a := range fn.Args {
		parts = append(parts, fmt.Sprintf("%s %s", lowerFirst(a.Name)+"_", g.goType(a.Type)))
	}
	return joinComma(parts)
}

func (g *gen) fnReturns(fn *idl.Function) string {
	if fn.Oneway {
		return "error"
	}
	if fn.Returns == nil {
		return "error"
	}
	return fmt.Sprintf("(%s, error)", g.goType(fn.Returns))
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

func (g *gen) genHandlerInterface(svc *idl.Service) {
	g.pf("// %sHandler is the application-side interface for service %s.\n", svc.Name, svc.Name)
	g.pf("type %sHandler interface {\n", svc.Name)
	for _, fn := range svc.Functions {
		params := "p *sim.Proc"
		if ps := g.fnParams(fn); ps != "" {
			params += ", " + ps
		}
		g.pf("\t%s(%s) %s\n", goName(fn.Name), params, g.fnReturns(fn))
	}
	g.pf("}\n\n")
}

func (g *gen) genClient(svc *idl.Service) {
	cn := svc.Name + "Client"
	g.pf("// %s is the generated typed client for service %s.\n", cn, svc.Name)
	g.pf("type %s struct {\n\tT trdma.Transport\n\tseq int32\n}\n\n", cn)
	g.pf("// New%s wraps a transport in the typed client.\n", cn)
	g.pf("func New%s(t trdma.Transport) *%s {\n\treturn &%s{T: t}\n}\n\n", cn, cn, cn)

	for _, fn := range svc.Functions {
		gn := goName(fn.Name)
		params := "p *sim.Proc"
		if ps := g.fnParams(fn); ps != "" {
			params += ", " + ps
		}
		g.pf("// %s invokes %s.%s.\n", gn, svc.Name, fn.Name)
		g.pf("func (c *%s) %s(%s) %s {\n", cn, gn, params, g.fnReturns(fn))

		zero := ""
		retErr := func(errExpr string) string {
			if fn.Oneway || fn.Returns == nil {
				return "return " + errExpr
			}
			return fmt.Sprintf("return %s, %s", zero, errExpr)
		}
		if fn.Returns != nil {
			g.pf("\tvar zero %s\n", g.goType(fn.Returns))
			zero = "zero"
		}
		msgType := "thrift.CALL"
		if fn.Oneway {
			msgType = "thrift.ONEWAY"
		}
		g.pf("\tc.seq++\n")
		g.pf("\tbuf := thrift.NewTMemoryBufferWith(c.T.Stage())\n")
		g.pf("\tw := thrift.NewTBinaryProtocol(buf)\n")
		g.pf("\tif err := w.WriteMessageBegin(%q, %s, c.seq); err != nil {\n\t\t%s\n\t}\n", fn.Name, msgType, retErr("err"))
		g.pf("\targs := %s{", argsStructName(svc, fn))
		for i, a := range fn.Args {
			if i > 0 {
				g.pf(", ")
			}
			g.pf("%s: %s", goName(a.Name), lowerFirst(a.Name)+"_")
		}
		g.pf("}\n")
		g.pf("\tif err := args.Write(w); err != nil {\n\t\t%s\n\t}\n", retErr("err"))
		g.pf("\tif err := w.WriteMessageEnd(); err != nil {\n\t\t%s\n\t}\n", retErr("err"))
		if fn.Oneway {
			g.pf("\t_, err := c.T.Invoke(p, %q, buf.Bytes(), true)\n", fn.Name)
			g.pf("\treturn err\n}\n\n")
			continue
		}
		g.pf("\trespBytes, err := c.T.Invoke(p, %q, buf.Bytes(), false)\n", fn.Name)
		g.pf("\tif err != nil {\n\t\t%s\n\t}\n", retErr("err"))
		g.pf("\tr := thrift.NewTBinaryProtocol(thrift.NewTMemoryBufferWith(respBytes))\n")
		g.pf("\t_, mt, _, err := r.ReadMessageBegin()\n")
		g.pf("\tif err != nil {\n\t\t%s\n\t}\n", retErr("err"))
		g.pf("\tif mt == thrift.EXCEPTION {\n")
		g.pf("\t\tvar ex thrift.TApplicationException\n")
		g.pf("\t\tif err := ex.Read(r); err != nil {\n\t\t\t%s\n\t\t}\n", retErr("err"))
		g.pf("\t\t%s\n\t}\n", retErr("&ex"))
		g.pf("\tvar result %s\n", resultStructName(svc, fn))
		g.pf("\tif err := result.Read(r); err != nil {\n\t\t%s\n\t}\n", retErr("err"))
		for _, th := range fn.Throws {
			g.pf("\tif result.%s != nil {\n\t\t%s\n\t}\n", goName(th.Name), retErr("result."+goName(th.Name)))
		}
		if fn.Returns != nil {
			g.pf("\tif !result.SuccessSet {\n\t\treturn zero, thrift.NewApplicationException(thrift.ExcMissingResult, %q)\n\t}\n", fn.Name+" returned no result")
			g.pf("\treturn result.Success, nil\n}\n\n")
		} else {
			g.pf("\treturn nil\n}\n\n")
		}
	}
}

func (g *gen) genProcessor(svc *idl.Service) {
	pn := svc.Name + "Processor"
	g.pf("// %s dispatches framed requests to a handler.\n", pn)
	g.pf("type %s struct {\n\th %sHandler\n}\n\n", pn, svc.Name)
	g.pf("// New%s wraps a handler.\nfunc New%s(h %sHandler) *%s {\n\treturn &%s{h: h}\n}\n\n", pn, pn, svc.Name, pn, pn)

	g.pf("// ProcessBytes decodes one request, invokes the handler, and returns\n")
	g.pf("// the framed response (nil for oneway).\n")
	g.pf("func (pr *%s) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {\n", pn)
	g.pf("\tr := thrift.NewTBinaryProtocol(thrift.NewTMemoryBufferView(req))\n")
	g.pf("\tname, _, seq, err := r.ReadMessageBegin()\n")
	g.pf("\tif err != nil {\n\t\treturn %sEncodeException(name, seq, thrift.ExcProtocolError, err.Error())\n\t}\n", lowerFirst(svc.Name))
	g.pf("\tswitch name {\n")
	for _, fn := range svc.Functions {
		g.pf("\tcase %q:\n", fn.Name)
		g.pf("\t\treturn pr.handle%s(p, r, seq)\n", goName(fn.Name))
	}
	g.pf("\t}\n")
	g.pf("\treturn %sEncodeException(name, seq, thrift.ExcUnknownMethod, \"unknown method \"+name)\n", lowerFirst(svc.Name))
	g.pf("}\n\n")

	// Shared exception encoder.
	g.pf("func %sEncodeException(name string, seq int32, code thrift.ApplicationExceptionType, msg string) []byte {\n", lowerFirst(svc.Name))
	g.pf("\tbuf := thrift.NewTMemoryBuffer()\n")
	g.pf("\tw := thrift.NewTBinaryProtocol(buf)\n")
	g.pf("\tw.WriteMessageBegin(name, thrift.EXCEPTION, seq)\n")
	g.pf("\tthrift.NewApplicationException(code, msg).Write(w)\n")
	g.pf("\tw.WriteMessageEnd()\n")
	g.pf("\treturn buf.Bytes()\n}\n\n")

	for _, fn := range svc.Functions {
		g.genHandlerStub(svc, fn)
	}
}

func (g *gen) genHandlerStub(svc *idl.Service, fn *idl.Function) {
	pn := svc.Name + "Processor"
	g.pf("func (pr *%s) handle%s(p *sim.Proc, r thrift.TProtocol, seq int32) []byte {\n", pn, goName(fn.Name))
	g.pf("\tvar args %s\n", argsStructName(svc, fn))
	g.pf("\tif err := args.Read(r); err != nil {\n\t\treturn %sEncodeException(%q, seq, thrift.ExcProtocolError, err.Error())\n\t}\n", lowerFirst(svc.Name), fn.Name)
	callArgs := "p"
	for _, a := range fn.Args {
		callArgs += ", args." + goName(a.Name)
	}
	if fn.Oneway {
		g.pf("\tpr.h.%s(%s)\n", goName(fn.Name), callArgs)
		g.pf("\treturn nil\n}\n\n")
		return
	}
	if fn.Returns != nil {
		g.pf("\tret, err := pr.h.%s(%s)\n", goName(fn.Name), callArgs)
	} else {
		g.pf("\terr := pr.h.%s(%s)\n", goName(fn.Name), callArgs)
	}
	g.pf("\tvar result %s\n", resultStructName(svc, fn))
	g.pf("\tif err != nil {\n")
	if len(fn.Throws) == 0 {
		g.pf("\t\treturn %sEncodeException(%q, seq, thrift.ExcInternalError, err.Error())\n", lowerFirst(svc.Name), fn.Name)
	} else {
		g.pf("\t\tswitch e := err.(type) {\n")
		for _, th := range fn.Throws {
			g.pf("\t\tcase %s:\n\t\t\tresult.%s = e\n", g.goType(th.Type), goName(th.Name))
		}
		g.pf("\t\tdefault:\n\t\t\treturn %sEncodeException(%q, seq, thrift.ExcInternalError, err.Error())\n", lowerFirst(svc.Name), fn.Name)
		g.pf("\t\t}\n")
	}
	if fn.Returns != nil {
		g.pf("\t} else {\n\t\tresult.Success = ret\n\t\tresult.SuccessSet = true\n\t}\n")
	} else {
		g.pf("\t}\n")
	}
	g.pf("\tbuf := thrift.NewTMemoryBufferWith(trdma.ResponseStage(p))\n")
	g.pf("\tw := thrift.NewTBinaryProtocol(buf)\n")
	g.pf("\tw.WriteMessageBegin(%q, thrift.REPLY, seq)\n", fn.Name)
	g.pf("\tresult.Write(w)\n")
	g.pf("\tw.WriteMessageEnd()\n")
	g.pf("\treturn buf.Bytes()\n}\n\n")
}

func (g *gen) genHintTable(svc *idl.Service) {
	g.pf("// %sHints is the hierarchical hint table for service %s (Fig. 1).\n", svc.Name, svc.Name)
	g.pf("var %sHints = &trdma.ServiceHints{\n", svc.Name)
	g.pf("\tServiceName: %q,\n", svc.Name)
	g.pf("\tService: %s,\n", hintLiteral(svc.Hints))
	g.pf("\tFunctions: map[string]*hints.Set{\n")
	for _, fn := range svc.Functions {
		g.pf("\t\t%q: %s,\n", fn.Name, hintLiteral(fn.Hints))
	}
	g.pf("\t},\n")
	g.pf("\tFnIDs: map[string]uint32{\n")
	for i, fn := range svc.Functions {
		g.pf("\t\t%q: %d,\n", fn.Name, i+1)
	}
	g.pf("\t},\n")
	g.pf("\tOneway: map[string]bool{\n")
	for _, fn := range svc.Functions {
		if fn.Oneway {
			g.pf("\t\t%q: true,\n", fn.Name)
		}
	}
	g.pf("\t},\n")
	g.pf("}\n\n")
}
