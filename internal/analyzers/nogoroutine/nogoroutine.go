// Package nogoroutine forbids real concurrency inside sim-process code.
// The DES kernel's contract is one-process-at-a-time: sim processes are
// coroutines of the goroutine that drives the Env, and they never run
// concurrently. Spawning raw goroutines, communicating over channels or
// guarding state with sync primitives inside DES-scheduled packages
// reintroduces OS-scheduler nondeterminism that the kernel exists to
// exclude — use sim.Env.Spawn, sim.Queue, sim.Signal and sim.Mutex
// instead. The sim kernel package is checked like every other: its
// process switch is iter.Pull, so it has no go statement, channel or
// select of its own.
package nogoroutine

import (
	"go/ast"
	"go/types"

	"hatrpc/internal/analyzers/framework"
	"hatrpc/internal/analyzers/internal/lintutil"
)

// Analyzer is the nogoroutine check.
var Analyzer = &framework.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid go statements, channel operations and sync primitives in " +
		"DES-scheduled packages, the sim kernel included",
	Run: run,
}

func run(pass *framework.Pass) (any, error) {
	if !lintutil.IsDESPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(st.Pos(),
					"go statement in DES-scheduled package %s: raw goroutines break the one-process-at-a-time scheduler contract; use sim.Env.Spawn",
					pass.Pkg.Name())
			case *ast.SendStmt:
				pass.Reportf(st.Pos(),
					"channel send in DES-scheduled package %s: cross-process channels race the DES scheduler; use sim.Queue or sim.Signal",
					pass.Pkg.Name())
			case *ast.UnaryExpr:
				if st.Op.String() == "<-" {
					pass.Reportf(st.Pos(),
						"channel receive in DES-scheduled package %s: cross-process channels race the DES scheduler; use sim.Queue or sim.Signal",
						pass.Pkg.Name())
				}
			case *ast.SelectStmt:
				pass.Reportf(st.Pos(),
					"select statement in DES-scheduled package %s: real channel multiplexing is nondeterministic under the DES",
					pass.Pkg.Name())
			case *ast.CallExpr:
				if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "make" && len(st.Args) > 0 {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						if tv, ok := pass.TypesInfo.Types[st.Args[0]]; ok && tv.Type != nil {
							if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
								pass.Reportf(st.Pos(),
									"make(chan) in DES-scheduled package %s: use sim.Queue/sim.Signal for deterministic process communication",
									pass.Pkg.Name())
							}
						}
					}
				}
			case *ast.SelectorExpr:
				if obj := pass.TypesInfo.Uses[st.Sel]; obj != nil && obj.Pkg() != nil {
					switch obj.Pkg().Path() {
					case "sync", "sync/atomic":
						pass.Reportf(st.Pos(),
							"use of %s.%s in DES-scheduled package %s: the DES serializes all processes; use sim.Mutex/sim.Signal",
							obj.Pkg().Name(), obj.Name(), pass.Pkg.Name())
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
