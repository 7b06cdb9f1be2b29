// Dataflow queries over a function CFG (DESIGN.md §11). Two query
// families cover the four flow-sensitive analyzers:
//
//   - must-follow (MustPrecede): "every path to this node passes
//     through a node satisfying pred first" — dominator-based, used by
//     epochfence (a fence comparison must dominate the epoch write) and
//     wirebounds (a length check must dominate the buffer access).
//
//   - must-not-follow (TrackReleases): "after a release event, no use
//     of the released object is reachable without an intervening
//     re-definition" — a forward may-analysis, used by arenaalias.
//
// Both are intraprocedural and operate on the node granularity BuildCFG
// records (statements, decision expressions, synthetic range headers).
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ---------------------------------------------------------------------------
// Dominators

// dominators computes the immediate-dominator array with the classic
// iterative algorithm (Cooper/Harvey/Kennedy) over a reverse-postorder
// numbering. Unreachable blocks get idom -1.
func (c *CFG) dominators() []int {
	if c.idom != nil {
		return c.idom
	}
	n := len(c.Blocks)
	rpo := make([]*Block, 0, n)
	seen := make([]bool, n)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		rpo = append(rpo, b)
	}
	dfs(c.Entry)
	// rpo currently holds postorder; reverse it.
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	order := make([]int, n) // block index → RPO position
	for i := range order {
		order[i] = -1
	}
	for pos, b := range rpo {
		order[b.Index] = pos
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[c.Entry.Index] = c.Entry.Index
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == c.Entry {
				continue
			}
			newIdom := -1
			for _, p := range b.Preds {
				if idom[p.Index] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p.Index
				} else {
					newIdom = intersect(newIdom, p.Index)
				}
			}
			if newIdom != -1 && idom[b.Index] != newIdom {
				idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	c.idom = idom
	return idom
}

// dominates reports whether block a dominates block b (reflexive).
func (c *CFG) dominates(a, b int) bool {
	idom := c.dominators()
	if idom[b] == -1 {
		return false // b unreachable: vacuously guarded, callers skip it
	}
	for {
		if b == a {
			return true
		}
		next := idom[b]
		if next == b || next == -1 {
			return false
		}
		b = next
	}
}

// blockOf locates the recorded node whose source range encloses pos,
// returning its block index and position within the block. The smallest
// enclosing recorded node wins, so a sub-expression maps to the exact
// decision block that evaluates it. Returns (-1, -1) when pos is not
// covered (e.g. inside a function literal, which has its own CFG).
func (c *CFG) blockOf(pos token.Pos) (blk, idx int) {
	blk, idx = -1, -1
	best := token.Pos(-1)
	var bestEnd token.Pos
	for _, b := range c.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				if best == token.Pos(-1) || (n.End()-n.Pos() < bestEnd-best) {
					best, bestEnd = n.Pos(), n.End()
					blk, idx = b.Index, i
				}
			}
		}
	}
	return blk, idx
}

// MustPrecede reports whether every path from the function entry to the
// node at pos passes through a node satisfying pred before reaching it.
// Within the node's own block, only strictly earlier nodes count.
// Returns true for positions the CFG does not cover (nothing to check).
func (c *CFG) MustPrecede(pos token.Pos, pred func(ast.Node) bool) bool {
	blk, idx := c.blockOf(pos)
	if blk == -1 {
		return true
	}
	// Earlier in the same block?
	for i := 0; i < idx; i++ {
		if pred(c.Blocks[blk].Nodes[i]) {
			return true
		}
	}
	// Any node of any strictly dominating block?
	for _, b := range c.Blocks {
		if b.Index == blk || !c.dominates(b.Index, blk) {
			continue
		}
		for _, n := range b.Nodes {
			if pred(n) {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Must-not-follow: release tracking (forward may-analysis)

// ReleaseEvent classifies one flattened node for TrackReleases.
type ReleaseEvent int

const (
	// EvNone: the node neither releases, redefines nor uses a tracked
	// object.
	EvNone ReleaseEvent = iota
	// EvRelease: the node releases the object; any later use on any
	// path (without an intervening EvDef) is a violation.
	EvRelease
	// EvDef: the node rebinds the object; the release taint is cleared.
	EvDef
	// EvUse: the node reads/writes/aliases the object.
	EvUse
)

// Violation is one use of an object reachable after its release.
type Violation struct {
	Obj     types.Object
	Use     ast.Node // the offending use
	Release ast.Node // the release it follows
}

// releaseSite pairs an object with where it was released.
type releaseSite struct {
	obj     types.Object
	release ast.Node
}

// TrackReleases runs the must-not-follow query: classify is invoked on
// every flattened node in approximate evaluation order (assignment
// right-hand sides before left-hand sides, deferred calls at function
// exit) and returns the events the node triggers. A use reachable from
// a release of the same object, with no redefinition in between on that
// path, is reported. Violations are returned in source order, deduped
// per (object, use).
func (c *CFG) TrackReleases(classify func(ast.Node) []ObjEvent) []Violation {
	// Flatten each block's nodes into event lists once.
	events := make([][]ObjEvent, len(c.Blocks))
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			events[b.Index] = append(events[b.Index], classify(n)...)
		}
	}
	// Forward may-analysis: in/out = set of live release sites.
	in := make([]map[releaseSite]bool, len(c.Blocks))
	seen := map[useKey]bool{}
	var out []Violation
	work := []*Block{c.Entry}
	if in[c.Entry.Index] == nil {
		in[c.Entry.Index] = map[releaseSite]bool{}
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		state := map[releaseSite]bool{}
		for s := range in[b.Index] {
			state[s] = true
		}
		for _, ev := range events[b.Index] {
			switch ev.Event {
			case EvUse:
				for s := range state {
					if s.obj == ev.Obj {
						key := useKey{ev.Obj, ev.Node.Pos()}
						if !seen[key] {
							seen[key] = true
							out = append(out, Violation{Obj: ev.Obj, Use: ev.Node, Release: s.release})
						}
					}
				}
			case EvDef:
				for s := range state {
					if s.obj == ev.Obj {
						delete(state, s)
					}
				}
			case EvRelease:
				// A re-release of an already-released buffer is itself a
				// use-after-release (double recycle), then taints anew.
				for s := range state {
					if s.obj == ev.Obj {
						key := useKey{ev.Obj, ev.Node.Pos()}
						if !seen[key] {
							seen[key] = true
							out = append(out, Violation{Obj: ev.Obj, Use: ev.Node, Release: s.release})
						}
					}
				}
				state[releaseSite{obj: ev.Obj, release: ev.Node}] = true
			}
		}
		for _, s := range b.Succs {
			first := in[s.Index] == nil
			if first {
				in[s.Index] = map[releaseSite]bool{}
			}
			grew := false
			for site := range state {
				if !in[s.Index][site] {
					in[s.Index][site] = true
					grew = true
				}
			}
			if grew || first {
				work = append(work, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Use.Pos() < out[j].Use.Pos() })
	return out
}

// ObjEvent is one (object, event) pair a classifier attributes to a
// flattened node.
type ObjEvent struct {
	Obj   types.Object
	Event ReleaseEvent
	Node  ast.Node
}

type useKey struct {
	obj types.Object
	pos token.Pos
}

// ---------------------------------------------------------------------------
// Flattening helpers shared by the analyzers

// FlattenEvents walks one recorded CFG node and invokes emit on every
// relevant sub-node in approximate evaluation order:
//
//   - assignment RHS before LHS (so `b = f(b)` reads before rebinding);
//   - declaration initializers before the declared names;
//   - range Key/Value rebinding via the synthetic RangeHeader;
//   - function literals are NOT descended into (separate functions).
//
// kind distinguishes reads (EvUse context), definitions (EvDef) and
// plain traversal; emit decides what any node means for its analysis.
func FlattenEvents(n ast.Node, emit func(n ast.Node, isDef bool)) {
	switch n := n.(type) {
	case *RangeHeader:
		if n.Range.Tok == token.DEFINE || n.Range.Tok == token.ASSIGN {
			if id, ok := n.Range.Key.(*ast.Ident); ok && id.Name != "_" {
				emit(id, true)
			}
			if id, ok := n.Range.Value.(*ast.Ident); ok && id.Name != "_" {
				emit(id, true)
			}
		}
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			walkUses(rhs, emit)
		}
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if id.Name != "_" {
					emit(id, true)
				}
				continue
			}
			// x.f = …, x[i] = …: the base is used, nothing is rebound.
			walkUses(lhs, emit)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						walkUses(v, emit)
					}
					for _, name := range vs.Names {
						if name.Name != "_" {
							emit(name, true)
						}
					}
				}
			}
		}
	case *ast.IncDecStmt:
		walkUses(n.X, emit)
		if id, ok := n.X.(*ast.Ident); ok {
			emit(id, true)
		}
	default:
		walkUses(n, emit)
	}
}

// walkUses visits every node below n in pre-order, skipping function
// literal bodies, emitting each as a non-definition.
func walkUses(n ast.Node, emit func(ast.Node, bool)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		emit(m, false)
		return true
	})
}
