package codegen

import (
	"fmt"
	"strings"

	"hatrpc/internal/idl"
)

// genService emits the handler interface, typed client, processor, and
// hint table for one service.
func (g *gen) genService(svc *idl.Service) {
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
// non-void) plus the declared throws fields, each written only when set.
func (g *gen) genResultStruct(svc *idl.Service, fn *idl.Function) {
	s := &idl.Struct{Name: resultStructName(svc, fn)}
	g.pf("type %s struct {\n", s.Name)
	if fn.Returns != nil {
		s.Fields = append(s.Fields, &idl.Field{ID: 0, Name: "success", Type: fn.Returns})
		g.pf("\tSuccess %s\n", retType(fn.Returns))
		g.pf("\tSuccessSet bool\n")
	}
	for _, th := range fn.Throws {
		s.Fields = append(s.Fields, th)
		g.pf("\t%s %s\n", goName(th.Name), goType(th.Type))
	}
	g.pf("}\n\n")
	g.genStructWrite(s, true)
	g.genStructRead(s, true)
}

// genPlainStruct emits a non-exported struct with Write/Read (args
// carriers).
func (g *gen) genPlainStruct(s *idl.Struct) {
	g.pf("type %s struct {\n", s.Name)
	for _, f := range s.Fields {
		g.pf("\t%s %s\n", goName(f.Name), goType(f.Type))
	}
	g.pf("}\n\n")
	g.genStructWrite(s, false)
	g.genStructRead(s, false)
}

// fnParams renders a function's Go parameter list, the calling process
// first.
func (g *gen) fnParams(fn *idl.Function) string {
	parts := []string{"p *sim.Proc"}
	for _, a := range fn.Args {
		parts = append(parts, fmt.Sprintf("%s %s", lowerFirst(a.Name)+"_", goType(a.Type)))
	}
	return strings.Join(parts, ", ")
}

func (g *gen) fnReturns(fn *idl.Function) string {
	if fn.Returns == nil { // void or oneway
		return "error"
	}
	return fmt.Sprintf("(%s, error)", retType(fn.Returns))
}

func (g *gen) genHandlerInterface(svc *idl.Service) {
	g.pf("// %sHandler is the application-side interface for service %s.\n", svc.Name, svc.Name)
	g.pf("type %sHandler interface {\n", svc.Name)
	for _, fn := range svc.Functions {
		g.pf("\t%s(%s) %s\n", goName(fn.Name), g.fnParams(fn), g.fnReturns(fn))
	}
	g.pf("}\n\n")
}

func (g *gen) genClient(svc *idl.Service) {
	cn := svc.Name + "Client"
	g.pf("// %s is the generated typed client for service %s. It carries one\n", cn, svc.Name)
	g.pf("// call at a time: a request is serialized into the transport's one staging\n")
	g.pf("// buffer and every call re-arms the same codec state, so calls on one\n")
	g.pf("// client must not overlap — give each calling process its own client.\n")
	g.pf("// Arguments are lent for the call; binary results are the caller's, the\n")
	g.pf("// values of one reply sharing one allocation.\n")
	g.pf("type %s struct {\n\tT trdma.Transport\n\tseq int32\n\tcd *thrift.Codec\n}\n\n", cn)
	g.pf("// New%s wraps a transport in the typed client.\n", cn)
	g.pf("func New%s(t trdma.Transport) *%s {\n\treturn &%s{T: t, cd: thrift.NewCodec()}\n}\n\n", cn, cn, cn)

	for _, fn := range svc.Functions {
		gn := goName(fn.Name)
		g.pf("// %s invokes %s.%s.\n", gn, svc.Name, fn.Name)
		g.pf("func (c *%s) %s(%s) %s {\n", cn, gn, g.fnParams(fn), g.fnReturns(fn))

		zero := ""
		retErr := func(errExpr string) string {
			if fn.Oneway || fn.Returns == nil {
				return "return " + errExpr
			}
			return fmt.Sprintf("return %s, %s", zero, errExpr)
		}
		if fn.Returns != nil {
			g.pf("\tvar zero %s\n", retType(fn.Returns))
			zero = "zero"
		}
		msgType := "thrift.CALL"
		if fn.Oneway {
			msgType = "thrift.ONEWAY"
		}
		g.pf("\tc.seq++\n")
		g.pf("\tw := c.cd.Encode(c.T.Stage())\n")
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
			g.pf("\t_, err := c.T.Invoke(p, %q, c.cd.Encoded(), true)\n", fn.Name)
			g.pf("\treturn err\n}\n\n")
			continue
		}
		g.pf("\trespBytes, err := c.T.Invoke(p, %q, c.cd.Encoded(), false)\n", fn.Name)
		g.pf("\tif err != nil {\n\t\t%s\n\t}\n", retErr("err"))
		g.pf("\tr := c.cd.DecodeReply(respBytes)\n")
		g.pf("\t_, mt, seq, err := r.ReadMessageHeader()\n")
		g.pf("\tif err != nil {\n\t\t%s\n\t}\n", retErr("err"))
		g.pf("\tif mt == thrift.EXCEPTION {\n")
		g.pf("\t\tvar ex thrift.TApplicationException\n")
		g.pf("\t\tif err := ex.Read(r); err != nil {\n\t\t\t%s\n\t\t}\n", retErr("err"))
		g.pf("\t\t%s\n\t}\n", retErr("&ex"))
		g.pf("\tif seq != c.seq {\n\t\t%s\n\t}\n",
			retErr(fmt.Sprintf("thrift.NewApplicationException(thrift.ExcBadSequenceID, %q)", fn.Name+" reply out of sequence")))
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
	exc := lowerFirst(svc.Name) + "EncodeException"
	g.pf("// %s dispatches framed requests to a handler. Handlers yield, so\n", pn)
	g.pf("// several requests may be in flight: each takes its codec state from a\n")
	g.pf("// free list for as long as it runs.\n")
	g.pf("type %s struct {\n\th %sHandler\n\tcodecs thrift.CodecPool\n}\n\n", pn, svc.Name)
	g.pf("// New%s wraps a handler.\nfunc New%s(h %sHandler) *%s {\n\treturn &%s{h: h}\n}\n\n", pn, pn, svc.Name, pn, pn)

	g.pf("// ProcessBytes decodes one request, invokes the handler, and returns\n")
	g.pf("// the framed response (nil for oneway). It dispatches on fnID; a request\n")
	g.pf("// that came without one (id 0: IPoIB) is matched by the name it carries,\n")
	g.pf("// compared where it lies in the request.\n")
	g.pf("func (pr *%s) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {\n", pn)
	g.pf("\tcd := pr.codecs.Get()\n")
	g.pf("\tdefer pr.codecs.Put(cd)\n")
	g.pf("\tr := cd.DecodeRequest(req)\n")
	g.pf("\tname, _, seq, err := r.ReadMessageHeader()\n")
	g.pf("\tif err != nil {\n\t\treturn %s(string(name), seq, thrift.ExcProtocolError, err.Error())\n\t}\n", exc)
	g.pf("\tif fnID == 0 {\n")
	g.pf("\t\tswitch string(name) {\n")
	for i, fn := range svc.Functions {
		g.pf("\t\tcase %q:\n\t\t\tfnID = %d\n", fn.Name, i+1)
	}
	g.pf("\t\t}\n\t}\n")
	g.pf("\tswitch fnID {\n")
	for i, fn := range svc.Functions {
		g.pf("\tcase %d:\n", i+1)
		g.pf("\t\treturn pr.handle%s(p, cd, r, seq)\n", goName(fn.Name))
	}
	g.pf("\t}\n")
	g.pf("\treturn %s(string(name), seq, thrift.ExcUnknownMethod, \"unknown method \"+string(name))\n", exc)
	g.pf("}\n\n")

	// Shared exception encoder.
	g.pf("func %s(name string, seq int32, code thrift.ApplicationExceptionType, msg string) []byte {\n", exc)
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
	g.pf("func (pr *%s) handle%s(p *sim.Proc, cd *thrift.Codec, r thrift.TProtocol, seq int32) []byte {\n", pn, goName(fn.Name))
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
			g.pf("\t\tcase %s:\n\t\t\tresult.%s = e\n", goType(th.Type), goName(th.Name))
		}
		g.pf("\t\tdefault:\n\t\t\treturn %sEncodeException(%q, seq, thrift.ExcInternalError, err.Error())\n", lowerFirst(svc.Name), fn.Name)
		g.pf("\t\t}\n")
	}
	if fn.Returns != nil {
		g.pf("\t} else {\n\t\tresult.Success = ret\n\t\tresult.SuccessSet = true\n\t}\n")
	} else {
		g.pf("\t}\n")
	}
	g.pf("\tw := cd.Encode(trdma.ResponseStage(p))\n")
	g.pf("\tw.WriteMessageBegin(%q, thrift.REPLY, seq)\n", fn.Name)
	g.pf("\tif err := result.Write(w); err != nil {\n\t\treturn %sEncodeException(%q, seq, thrift.ExcInternalError, err.Error())\n\t}\n", lowerFirst(svc.Name), fn.Name)
	g.pf("\tw.WriteMessageEnd()\n")
	g.pf("\treturn cd.Encoded()\n}\n\n")
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
