// Package arenaalias machine-checks the arena payload lifecycle from
// DESIGN.md §9/§13: a slice handed back to the arena by the engine's
// Recycle is re-owned by the pool the moment the call returns, so
// reading it, writing it, storing it into a field, or recycling it a
// second time on ANY path after the release is a data race against the
// next borrower (the documented offset-subslice caveat of the engine's
// hot path, previously enforced only by comments).
//
// The check is intraprocedural and flow-sensitive: it runs the
// framework's must-not-follow query (TrackReleases) over the function's
// CFG, so a release inside one branch taints only the paths that pass
// through it, a `b := next()` rebinding clears the taint, range/for
// back edges are followed, and `defer Recycle(b)` is modeled at
// function exit (after every ordinary use). Only identifier arguments
// are tracked. Releases of subexpressions, and a release in one function
// followed by a use in another, are not checked here; the run-time buffer
// sanitizer catches them (internal/hatdebug, `go test -tags hatdebug`):
// it poisons every released buffer and panics on a second release of one
// the arena still holds.
package arenaalias

import (
	"go/ast"
	"go/types"

	"hatrpc/internal/analyzers/framework"
	"hatrpc/internal/analyzers/internal/lintutil"
)

// Analyzer is the arenaalias check.
var Analyzer = &framework.Analyzer{
	Name: "arenaalias",
	Doc: "flag any use of a payload slice on a path after it was released to the " +
		"arena (Conn.Recycle), including double releases",
	Run: run,
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil, nil
}

// releaseArg returns the released object and its argument identifier if
// call is an engine Recycle(b) (Conn's or Session's) with an ident arg.
func releaseArg(pass *framework.Pass, call *ast.CallExpr) (types.Object, *ast.Ident) {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || len(call.Args) != 1 || fn.Name() != "Recycle" || !lintutil.RecvPkgIs(fn, "engine") {
		return nil, nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	obj := pass.TypesInfo.Uses[id]
	if _, isVar := obj.(*types.Var); !isVar {
		return nil, nil
	}
	return obj, id
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	// Cheap pre-scan: functions that never release skip CFG work.
	releases := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, _ := releaseArg(pass, call); obj != nil {
				releases = true
			}
		}
		return !releases
	})
	if !releases {
		return
	}
	cfg := framework.BuildCFG(fd.Body)
	classify := func(n ast.Node) []framework.ObjEvent {
		var evs []framework.ObjEvent
		// walkUses visits a release call before its argument (pre-order),
		// so the argument ident can be attributed to the release instead
		// of double-counting as an immediate use-after-release.
		skip := map[ast.Node]bool{}
		framework.FlattenEvents(n, func(m ast.Node, isDef bool) {
			if isDef {
				if id, ok := m.(*ast.Ident); ok {
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj != nil {
						evs = append(evs, framework.ObjEvent{Obj: obj, Event: framework.EvDef, Node: m})
					}
				}
				return
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if obj, arg := releaseArg(pass, call); obj != nil {
					evs = append(evs, framework.ObjEvent{Obj: obj, Event: framework.EvRelease, Node: call})
					skip[arg] = true
					return
				}
			}
			if id, ok := m.(*ast.Ident); ok && !skip[id] {
				if obj, isVar := pass.TypesInfo.Uses[id].(*types.Var); isVar && obj != nil {
					evs = append(evs, framework.ObjEvent{Obj: obj, Event: framework.EvUse, Node: id})
				}
			}
		})
		return evs
	}
	for _, v := range cfg.TrackReleases(classify) {
		relLine := pass.Fset.Position(v.Release.Pos()).Line
		if _, isCall := v.Use.(*ast.CallExpr); isCall {
			pass.Reportf(v.Use.Pos(),
				"%s released to the arena again after the release on line %d: "+
					"a double Recycle hands the same payload to two borrowers",
				v.Obj.Name(), relLine)
			continue
		}
		pass.Reportf(v.Use.Pos(),
			"%s used after being released to the arena on line %d: "+
				"the pool re-owns the payload at the release, so this read/write/alias "+
				"races the next borrower",
			v.Obj.Name(), relLine)
	}
}
