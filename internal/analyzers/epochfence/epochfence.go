// Package epochfence enforces the monotone-adoption discipline from
// DESIGN.md §15: inside internal/cluster and internal/verbs, a store to
// an epoch-carrying field (any field whose name contains "epoch", or is
// exactly "seq"/"promised") through a pointer must be dominated by an
// ordered comparison against that same field. The node.go
// promise/install ladder — "compare, early-return on stale, then adopt"
// — becomes an enforced shape instead of a convention; a bare
// `st.epoch = e` with no fence on some path is exactly the
// deposed-primary resurrection bug the chaos soak exists to catch.
//
// The fence is recognised structurally: any <, >, <= or >= whose either
// operand names the assigned field (terminal identifier or selector
// name, case-insensitive) and that dominates the store in the
// function's CFG. Short-circuit conditions split blocks, so
// `if e > st.epoch && ok { st.epoch = e }` and the early-return shape
// `if seq <= st.seq { return }` both count. Whether the comparison is
// strict or the documented `>=` install-path variant is reviewed at the
// comparison site; stores that are legally unfenced (epoch-scoped seq
// reset on install, recovery from a trusted snapshot) carry
// `//hatlint:allow epochfence -- <reason>`.
//
// Stores through value-typed bases (e.g. a decoder filling a local
// request struct) are not adoption and are ignored.
package epochfence

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hatrpc/internal/analyzers/framework"
	"hatrpc/internal/analyzers/internal/lintutil"
)

// Analyzer is the epochfence check.
var Analyzer = &framework.Analyzer{
	Name: "epochfence",
	Doc: "require stores to epoch/seq/promised fields in cluster/verbs to be " +
		"dominated by an ordered comparison against the same field",
	Run: run,
}

func run(pass *framework.Pass) (any, error) {
	tail := lintutil.PkgTail(pass.Pkg.Path())
	if tail != "cluster" && tail != "verbs" {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil, nil
}

// monitoredField reports whether a store to the named field needs a
// fence.
func monitoredField(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "epoch") || l == "seq" || l == "promised"
}

// monitoredStore returns the stored-to selector if lhs is base.field
// with a pointer-typed base and a monitored field name.
func monitoredStore(pass *framework.Pass, lhs ast.Expr) *ast.SelectorExpr {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || !monitoredField(sel.Sel.Name) {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil
	}
	if _, isPtr := tv.Type.Underlying().(*types.Pointer); !isPtr {
		return nil
	}
	return sel
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	// Collect monitored stores first; most functions have none and skip
	// the CFG entirely.
	type store struct {
		sel  *ast.SelectorExpr
		node ast.Node
	}
	var stores []store
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate function, separate CFG
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel := monitoredStore(pass, lhs); sel != nil {
					stores = append(stores, store{sel: sel, node: n})
				}
			}
		case *ast.IncDecStmt:
			if sel := monitoredStore(pass, n.X); sel != nil {
				stores = append(stores, store{sel: sel, node: n})
			}
		}
		return true
	})
	if len(stores) == 0 {
		return
	}
	cfg := framework.BuildCFG(fd.Body)
	for _, st := range stores {
		field := st.sel.Sel.Name
		fence := func(n ast.Node) bool { return containsFence(n, field) }
		if cfg.MustPrecede(st.node.Pos(), fence) {
			continue
		}
		pass.Reportf(st.node.Pos(),
			"store to %s is not dominated by an ordered comparison against %q: "+
				"epoch/seq/promised adoption must be fenced (compare, reject stale, then adopt; "+
				"DESIGN.md §11)",
			types.ExprString(st.sel), field)
	}
}

// containsFence reports whether the CFG node contains an ordered
// comparison naming the field.
func containsFence(n ast.Node, field string) bool {
	found := false
	inspectCFGNode(n, func(m ast.Node) {
		be, ok := m.(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return
		}
		if namesField(be.X, field) || namesField(be.Y, field) {
			found = true
		}
	})
	return found
}

// namesField reports whether the expression's terminal name matches the
// field, case-insensitively (so `seq <= st.seq` fences both m.Seq and
// st.seq stores).
func namesField(e ast.Expr, field string) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return strings.EqualFold(e.Name, field)
	case *ast.SelectorExpr:
		return strings.EqualFold(e.Sel.Name, field)
	}
	return false
}

// inspectCFGNode visits every sub-node, tolerating the framework's
// synthetic RangeHeader (which ast.Inspect would reject) and skipping
// function literals.
func inspectCFGNode(n ast.Node, visit func(ast.Node)) {
	if rh, ok := n.(*framework.RangeHeader); ok {
		n = rh.Range.X
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		visit(m)
		return true
	})
}
