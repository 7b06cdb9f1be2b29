// Package wirebounds enforces strict-bounds wire decoding in the codec
// packages (internal/thrift, internal/cluster, internal/engine): an
// index or slice expression over a []byte PARAMETER must be dominated
// by a bounds guard for that buffer. Three guard shapes are recognised,
// matching the idioms the codecs actually use:
//
//   - a comparison mentioning len(b)/cap(b) (any side, any operator —
//     the early-return `if len(b) < hdrSize` and the short-circuit
//     `if len(b) != 13 || b[0] != magic` both count, because the CFG
//     splits short-circuit operands into separate blocks);
//   - a `range b` header (the loop variable is bounded by construction);
//   - the stdlib bounds-hint `_ = b[k]`, which panics early and lets
//     the compiler elide the later checks (the getHdr/putHdr shape).
//
// This is the static face of what the fuzz targets' truncated /
// overcount corpus entries probe dynamically: a fixed-width read the
// fuzzer has to get lucky to catch becomes a deterministic diagnostic.
// Only parameters are monitored — struct-field buffers (transport ring
// cursors) manage their bounds across calls and stay covered by the
// runtime checks and fuzzers.
package wirebounds

import (
	"go/ast"
	"go/types"

	"hatrpc/internal/analyzers/framework"
	"hatrpc/internal/analyzers/internal/lintutil"
)

// Analyzer is the wirebounds check.
var Analyzer = &framework.Analyzer{
	Name: "wirebounds",
	Doc: "require indexing/slicing of []byte parameters in codec packages to be " +
		"dominated by a length check on the same buffer",
	Run: run,
}

// codecTails are the package tails holding wire codecs.
var codecTails = map[string]bool{"thrift": true, "cluster": true, "engine": true}

func run(pass *framework.Pass) (any, error) {
	if !codecTails[lintutil.PkgTail(pass.Pkg.Path())] {
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

// byteSliceParams collects the function's []byte parameter objects.
func byteSliceParams(pass *framework.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	params := map[types.Object]bool{}
	if fd.Type.Params == nil {
		return params
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if sl, ok := obj.Type().Underlying().(*types.Slice); ok {
				if bt, ok := sl.Elem().Underlying().(*types.Basic); ok && bt.Kind() == types.Byte {
					params[obj] = true
				}
			}
		}
	}
	return params
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	params := byteSliceParams(pass, fd)
	if len(params) == 0 {
		return
	}
	paramOf := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && params[obj] {
			return obj
		}
		return nil
	}
	// Collect the monitored accesses: b[i] and b[lo:hi] with a param
	// base. The full-slice b[:] reads no element and is skipped, as is
	// the bounds-hint statement itself (it IS the guard).
	type access struct {
		node ast.Node
		obj  types.Object
	}
	var accesses []access
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IndexExpr:
			if obj := paramOf(n.X); obj != nil {
				accesses = append(accesses, access{node: n, obj: obj})
			}
		case *ast.SliceExpr:
			if obj := paramOf(n.X); obj != nil && (n.Low != nil || n.High != nil || n.Max != nil) {
				accesses = append(accesses, access{node: n, obj: obj})
			}
		}
		return true
	})
	if len(accesses) == 0 {
		return
	}
	cfg := framework.BuildCFG(fd.Body)
	for _, a := range accesses {
		if isHintStmt(fd, a.node) {
			continue
		}
		obj := a.obj
		guard := func(n ast.Node) bool { return guardsBuffer(pass, n, obj) }
		if cfg.MustPrecede(a.node.Pos(), guard) {
			continue
		}
		pass.Reportf(a.node.Pos(),
			"access to %s is not dominated by a bounds check: guard with a len(%s) "+
				"comparison, a range loop, or a `_ = %s[k]` bounds hint before fixed-width reads",
			obj.Name(), obj.Name(), obj.Name())
	}
}

// isHintStmt reports whether the access is the right-hand side of a
// `_ = b[k]` bounds-hint statement — that statement IS the guard, so
// its own index expression is exempt.
func isHintStmt(fd *ast.FuncDecl, target ast.Node) bool {
	hint := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if hint {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == target {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				hint = true
			}
			return false
		}
		return true
	})
	return hint
}

// guardsBuffer reports whether the CFG node establishes a bound for the
// buffer object.
func guardsBuffer(pass *framework.Pass, n ast.Node, obj types.Object) bool {
	if rh, ok := n.(*framework.RangeHeader); ok {
		return exprIsObj(pass, rh.Range.X, obj)
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil || found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		switch m := m.(type) {
		case *ast.BinaryExpr:
			if !isComparison(m) {
				return true
			}
			if mentionsLen(pass, m.X, obj) || mentionsLen(pass, m.Y, obj) {
				found = true
				return false
			}
		case *ast.AssignStmt:
			// bounds hint: _ = b[k]
			if len(m.Lhs) == 1 && len(m.Rhs) == 1 {
				if id, ok := m.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					if ix, ok := ast.Unparen(m.Rhs[0]).(*ast.IndexExpr); ok && exprIsObj(pass, ix.X, obj) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

func isComparison(be *ast.BinaryExpr) bool {
	switch be.Op.String() {
	case "<", ">", "<=", ">=", "==", "!=":
		return true
	}
	return false
}

// mentionsLen reports whether the expression contains len(obj) or
// cap(obj).
func mentionsLen(pass *framework.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || (fn.Name != "len" && fn.Name != "cap") || len(call.Args) != 1 {
			return true
		}
		if exprIsObj(pass, call.Args[0], obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

func exprIsObj(pass *framework.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}
