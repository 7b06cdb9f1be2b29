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
// non-void) plus the declared throws fields, each written only when set,
// and its Outcome (trdma.Result).
func (g *gen) genResultStruct(svc *idl.Service, fn *idl.Function) {
	s := &idl.Struct{Name: resultStructName(svc, fn)}
	g.pf("type %s struct {\n", s.Name)
	set := "true"
	if fn.Returns != nil {
		s.Fields = append(s.Fields, &idl.Field{ID: 0, Name: "success", Type: fn.Returns})
		g.pf("\tSuccess %s\n", retType(fn.Returns))
		g.pf("\tSuccessSet bool\n")
		set = "x.SuccessSet"
	}
	for _, th := range fn.Throws {
		s.Fields = append(s.Fields, th)
		g.pf("\t%s %s\n", goName(th.Name), goType(th.Type))
	}
	g.pf("}\n\n")
	g.genStructWrite(s, true)
	g.genStructRead(s, true)
	g.pf("// Outcome reports what the decoded reply carried (trdma.Result).\n")
	g.pf("func (x *%s) Outcome() (set bool, exc error) {\n", s.Name)
	for _, th := range fn.Throws {
		g.pf("\tif x.%s != nil {\n\t\treturn false, x.%s\n\t}\n", goName(th.Name), goName(th.Name))
	}
	g.pf("\treturn %s, nil\n}\n\n", set)
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

// zeroValue is the Go literal of a function result's zero value.
func zeroValue(t *idl.Type) string {
	switch t.Kind {
	case idl.TypeBool:
		return "false"
	case idl.TypeI32, idl.TypeI64:
		return "0"
	case idl.TypeString:
		return `""`
	case idl.TypeNamed:
		return t.Name + "{}"
	}
	return "nil"
}

// genClient emits the typed client: each method fills the args and result
// structs the client keeps for its function and makes the call through
// trdma.Client.Call.
func (g *gen) genClient(svc *idl.Service) {
	cn := svc.Name + "Client"
	g.pf("// %s is the generated typed client for service %s. Like the\n", cn, svc.Name)
	g.pf("// trdma.Client it calls through, it carries one call at a time: give each\n")
	g.pf("// calling process its own client. Arguments are lent for the call;\n")
	g.pf("// binary results are the caller's, the values of one reply sharing one\n")
	g.pf("// allocation.\n")
	g.pf("type %s struct {\n\ttrdma.Client\n", cn)
	for _, fn := range svc.Functions {
		g.pf("\t%sArgs %s\n", lowerFirst(fn.Name), argsStructName(svc, fn))
		if !fn.Oneway {
			g.pf("\t%sResult %s\n", lowerFirst(fn.Name), resultStructName(svc, fn))
		}
	}
	g.pf("}\n\n")
	g.pf("// New%s wraps a transport in the typed client.\n", cn)
	g.pf("func New%s(t trdma.Transport) *%s {\n\treturn &%s{Client: trdma.NewClient(t)}\n}\n\n", cn, cn, cn)

	for _, fn := range svc.Functions {
		gn, f := goName(fn.Name), lowerFirst(fn.Name)
		g.pf("// %s invokes %s.%s.\n", gn, svc.Name, fn.Name)
		g.pf("func (c *%s) %s(%s) %s {\n", cn, gn, g.fnParams(fn), g.fnReturns(fn))
		args := make([]string, len(fn.Args))
		for i, a := range fn.Args {
			args[i] = fmt.Sprintf("%s: %s", goName(a.Name), lowerFirst(a.Name)+"_")
		}
		lit := fmt.Sprintf("%s{%s}", argsStructName(svc, fn), strings.Join(args, ", "))
		result := "nil"
		if fn.Oneway {
			g.pf("\tc.%sArgs = %s\n", f, lit)
		} else {
			g.pf("\tc.%sArgs, c.%sResult = %s, %s{}\n", f, f, lit, resultStructName(svc, fn))
			result = "&c." + f + "Result"
		}
		call := fmt.Sprintf("c.Client.Call(p, %q, &c.%sArgs, %s)", fn.Name, f, result)
		if fn.Returns == nil {
			g.pf("\treturn %s\n}\n\n", call)
			continue
		}
		g.pf("\tif err := %s; err != nil {\n\t\treturn %s, err\n\t}\n", call, zeroValue(fn.Returns))
		g.pf("\treturn c.%sResult.Success, nil\n}\n\n", f)
	}
}

// genProcessor emits the processor: a trdma.Table with one row per
// function, and the state a request in flight keeps, a result for every
// function. Args stay in the invoker's frame: nothing boxes them.
func (g *gen) genProcessor(svc *idl.Service) {
	pn, st := svc.Name+"Processor", lowerFirst(svc.Name)+"State"
	g.pf("// %s is what a request of %s in flight keeps: its result.\n", st, pn)
	g.pf("type %s struct {\n", st)
	for _, fn := range svc.Functions {
		if !fn.Oneway {
			g.pf("\t%sResult %s\n", lowerFirst(fn.Name), resultStructName(svc, fn))
		}
	}
	g.pf("}\n\n")
	g.pf("// %s serves its handler through a trdma.Table, one row per\n// function.\n", pn)
	g.pf("type %s struct {\n\tt trdma.Table[%s]\n}\n\n", pn, st)
	g.pf("// New%s wraps a handler.\n", pn)
	g.pf("func New%s(h %sHandler) *%s {\n", pn, svc.Name, pn)
	g.pf("\treturn &%s{trdma.NewTable([]trdma.Fn[%s]{\n", pn, st)
	for _, fn := range svc.Functions {
		g.genInvoker(svc, fn, st)
	}
	g.pf("\t})}\n}\n\n")
	g.pf("// ProcessBytes serves one request (trdma.Table.Serve).\n")
	g.pf("func (pr *%s) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {\n", pn)
	g.pf("\treturn pr.t.Serve(p, fnID, req)\n}\n\n")
}

// genInvoker emits a function's row: its invoker reads the args, calls the
// handler and maps its error onto the result kept in the request's state,
// which it sets whole.
func (g *gen) genInvoker(svc *idl.Service, fn *idl.Function, st string) {
	res := "s." + lowerFirst(fn.Name) + "Result"
	g.pf("\t\t{Name: %q, Invoke: func(p *sim.Proc, s *%s, r thrift.TProtocol) (trdma.Msg, error) {\n", fn.Name, st)
	g.pf("\t\t\tvar a %s\n", argsStructName(svc, fn))
	g.pf("\t\t\tif err := a.Read(r); err != nil {\n\t\t\t\treturn nil, err\n\t\t\t}\n")
	call := "h." + goName(fn.Name) + "(p"
	for _, a := range fn.Args {
		call += ", a." + goName(a.Name)
	}
	call += ")"
	switch {
	case fn.Oneway:
		g.pf("\t\t\t_ = %s // no reply carries a oneway call's error\n\t\t\treturn nil, nil\n\t\t}},\n", call)
		return
	case fn.Returns != nil:
		g.pf("\t\t\tret, err := %s\n", call)
		g.pf("\t\t\t%s = %s{Success: ret, SuccessSet: err == nil}\n", res, resultStructName(svc, fn))
	default:
		g.pf("\t\t\terr := %s\n", call)
		g.pf("\t\t\t%s = %s{}\n", res, resultStructName(svc, fn))
	}
	if len(fn.Throws) > 0 {
		g.pf("\t\t\tswitch e := err.(type) {\n")
		for _, th := range fn.Throws {
			g.pf("\t\t\tcase %s:\n\t\t\t\t%s.%s, err = e, nil\n", goType(th.Type), res, goName(th.Name))
		}
		g.pf("\t\t\t}\n")
	}
	g.pf("\t\t\treturn &%s, err\n\t\t}},\n", res)
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
