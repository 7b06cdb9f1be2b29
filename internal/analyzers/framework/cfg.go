// Control-flow graph construction for the flow-sensitive analyzers
// (DESIGN.md §11). BuildCFG lowers one function body into basic blocks
// of AST nodes in approximate evaluation order, with edges for every
// structured-control construct the repo uses: if/else, for (all three
// clauses and back edge), range, switch/type-switch (fallthrough
// included), select, labeled break/continue, goto, return and panic.
//
// Two deliberate modeling choices matter to the analyzers built on top:
//
//   - Short-circuit operators split blocks: in `if a && b { … }` the
//     evaluation of b gets its own block reachable only when a is true,
//     so a length guard in a's position correctly dominates an access
//     in b's (the decodeStale shape: `len(b) != 13 || b[0] != magic`).
//
//   - defer is modeled at function exit, not at the defer statement:
//     the deferred call expression is appended to a dedicated exit
//     block that every return/panic path feeds. `defer c.Recycle(buf)`
//     therefore releases buf *after* every ordinary use, which is the
//     semantics arenaalias needs.
//
// Function literals are NOT descended into: a FuncLit body is its own
// function and gets its own CFG (callers analyze them separately, or
// skip them conservatively).
package framework

import (
	"go/ast"
	"go/token"
)

// RangeHeader is the synthetic node a range loop's header block holds:
// the per-iteration decision plus the Key/Value rebinding. It carries
// the RangeStmt without its children, so walking a block's nodes never
// visits the loop body out of place.
type RangeHeader struct {
	Range *ast.RangeStmt
}

// Pos and End delegate to the range token so diagnostics anchor sanely.
func (r *RangeHeader) Pos() token.Pos { return r.Range.For }
func (r *RangeHeader) End() token.Pos { return r.Range.X.End() }

// Block is one basic block: a maximal straight-line sequence of AST
// nodes (statements and decision expressions) with a single entry.
type Block struct {
	Index int
	// Nodes holds the block's statements and, for decision blocks, the
	// condition (sub)expression evaluated there, in evaluation order.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the function's single synthetic exit block. Deferred call
	// expressions are its nodes, in LIFO (execution) order.
	Exit *Block

	idom []int // immediate dominator per block index, computed lazily
}

// builder carries the construction state.
type builder struct {
	cfg     *CFG
	cur     *Block // nil while the current point is unreachable
	defers  []ast.Node
	returns []*Block // blocks ending in return/panic, linked to exit at the end
	pending string   // label of the LabeledStmt currently being lowered

	// break/continue targets, innermost last.
	breaks    []*loopCtx
	continues []*loopCtx
	labels    map[string]*labelCtx
	gotos     []pendingGoto
}

type loopCtx struct {
	label string
	block *Block // jump target
}

type labelCtx struct {
	start *Block // target of goto
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG lowers a function body to its CFG. body may be nil (an
// external declaration); the CFG then has only entry and exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}, labels: map[string]*labelCtx{}}
	b.cfg.Entry = b.newBlock()
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.cfg.Exit = b.newBlock()
	// Fall off the end of the function: edge into exit, as does every
	// return/panic path recorded during lowering.
	b.edgeTo(b.cfg.Exit)
	for _, r := range b.returns {
		link(r, b.cfg.Exit)
	}
	// Resolve forward gotos now that every label has been seen.
	for _, g := range b.gotos {
		if l := b.labels[g.label]; l != nil {
			link(g.from, l.start)
		}
	}
	// Deferred calls run on every exit, LIFO.
	for i := len(b.defers) - 1; i >= 0; i-- {
		b.cfg.Exit.Nodes = append(b.cfg.Exit.Nodes, b.defers[i])
	}
	return b.cfg
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// edgeTo links the current block to next (no-op when unreachable).
func (b *builder) edgeTo(next *Block) {
	if b.cur != nil {
		link(b.cur, next)
	}
}

// startBlock begins a fresh reachable block fed by the current one.
func (b *builder) startBlock() *Block {
	next := b.newBlock()
	b.edgeTo(next)
	b.cur = next
	return next
}

// add records a node in the current block (dropped while unreachable).
func (b *builder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// cond lowers a decision expression, splitting short-circuit operators
// into their own blocks. On return, trueBlk/falseBlk are fresh empty
// blocks reachable exactly when the condition is true/false.
func (b *builder) cond(e ast.Expr) (trueBlk, falseBlk *Block) {
	if be, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && (be.Op == token.LAND || be.Op == token.LOR) {
		lt, lf := b.cond(be.X)
		switch be.Op {
		case token.LAND: // Y evaluated only when X is true
			b.cur = lt
			rt, rf := b.cond(be.Y)
			merge := b.newBlock()
			link(lf, merge)
			link(rf, merge)
			return rt, merge
		default: // LOR: Y evaluated only when X is false
			b.cur = lf
			rt, rf := b.cond(be.Y)
			merge := b.newBlock()
			link(lt, merge)
			link(rt, merge)
			return merge, rf
		}
	}
	b.add(e)
	t, f := b.newBlock(), b.newBlock()
	b.edgeTo(t)
	b.edgeTo(f)
	b.cur = nil
	return t, f
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		t, f := b.cond(s.Cond)
		b.cur = t
		b.stmt(s.Body)
		afterThen := b.cur
		var afterElse *Block = f
		if s.Else != nil {
			b.cur = f
			b.stmt(s.Else)
			afterElse = b.cur
		}
		join := b.newBlock()
		link(afterThen, join)
		link(afterElse, join)
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock()
		var bodyBlk, exitBlk *Block
		if s.Cond != nil {
			bodyBlk, exitBlk = b.cond(s.Cond)
		} else {
			bodyBlk = b.newBlock()
			exitBlk = b.newBlock()
			link(head, bodyBlk)
		}
		lc := &loopCtx{label: b.pendingLabel(s), block: exitBlk}
		cc := &loopCtx{label: lc.label, block: nil} // post target filled below
		post := b.newBlock()
		cc.block = post
		b.breaks = append(b.breaks, lc)
		b.continues = append(b.continues, cc)
		b.cur = bodyBlk
		b.stmt(s.Body)
		b.edgeTo(post)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edgeTo(head) // back edge
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = exitBlk

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.startBlock()
		// The synthetic header stands in for the per-iteration decision
		// and the Key/Value rebinding; it has no children, so flatteners
		// never see the body twice.
		head.Nodes = append(head.Nodes, &RangeHeader{Range: s})
		bodyBlk := b.newBlock()
		exitBlk := b.newBlock()
		link(head, bodyBlk)
		link(head, exitBlk)
		lc := &loopCtx{label: b.pendingLabel(s), block: exitBlk}
		cc := &loopCtx{label: lc.label, block: head}
		b.breaks = append(b.breaks, lc)
		b.continues = append(b.continues, cc)
		b.cur = bodyBlk
		b.stmt(s.Body)
		b.edgeTo(head) // back edge
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = exitBlk

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, b.pendingLabel(s))

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, b.pendingLabel(s))

	case *ast.SelectStmt:
		b.switchBody(s.Body, b.pendingLabel(s))

	case *ast.LabeledStmt:
		start := b.startBlock()
		b.labels[s.Label.Name] = &labelCtx{start: start}
		b.pending = s.Label.Name
		b.stmt(s.Stmt)
		b.pending = ""

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := findLoop(b.breaks, label); t != nil {
				b.edgeTo(t.block)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := findLoop(b.continues, label); t != nil {
				b.edgeTo(t.block)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				if l := b.labels[label]; l != nil {
					link(b.cur, l.start) // backward goto
				} else {
					b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
				}
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// handled structurally by switchBody
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.exitEdge()

	case *ast.DeferStmt:
		// Argument expressions evaluate at the defer site; the call runs
		// at exit. Record the whole call in the exit block — for the
		// linters here the distinction that matters is WHEN the call
		// executes, and its arguments are idents either way.
		b.defers = append(b.defers, s.Call)

	case *ast.ExprStmt:
		if isPanic(s.X) {
			b.add(s)
			b.exitEdge()
			return
		}
		b.add(s)

	case *ast.GoStmt:
		b.add(s)

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, EmptyStmt, …
		b.add(s)
	}
}

// exitEdge terminates the current path at the (future) exit block. The
// exit block does not exist yet during construction, so returns are
// linked through a recorded edge applied by BuildCFG — implemented here
// by simply linking later: stash the block and clear reachability.
func (b *builder) exitEdge() {
	if b.cur != nil {
		b.returns = append(b.returns, b.cur)
	}
	b.cur = nil
}

// switchBody lowers the clause list shared by switch / type switch /
// select. Every clause is entered from the decision point; fallthrough
// chains a case body into the next one.
func (b *builder) switchBody(body *ast.BlockStmt, label string) {
	from := b.cur
	exitBlk := b.newBlock()
	b.breaks = append(b.breaks, &loopCtx{label: label, block: exitBlk})
	var clauses []*ast.CaseClause
	var comms []*ast.CommClause
	hasDefault := false
	for _, cs := range body.List {
		switch cs := cs.(type) {
		case *ast.CaseClause:
			clauses = append(clauses, cs)
			if cs.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			comms = append(comms, cs)
			if cs.Comm == nil {
				hasDefault = true
			}
		}
	}
	// Body blocks per clause in source order, so fallthrough can target
	// clause i+1.
	entries := make([]*Block, 0, len(clauses)+len(comms))
	for range clauses {
		entries = append(entries, b.newBlock())
	}
	for range comms {
		entries = append(entries, b.newBlock())
	}
	if len(clauses) > 0 {
		// Expression/type switches evaluate case expressions sequentially
		// (default last), so chain the tests: each test block holds one
		// clause's expressions, true → that body, false → the next test.
		// An earlier `case len(b) < n:` guard therefore dominates every
		// later clause — the codec status-switch shape.
		cur := from
		defaultIdx := -1
		for i, cs := range clauses {
			if cs.List == nil {
				defaultIdx = i
				continue
			}
			test := b.newBlock()
			link(cur, test)
			for _, e := range cs.List {
				test.Nodes = append(test.Nodes, e)
			}
			link(test, entries[i])
			cur = test
		}
		if defaultIdx >= 0 {
			link(cur, entries[defaultIdx])
		} else {
			link(cur, exitBlk) // no case matches
		}
	} else {
		// select: every ready clause is a direct alternative.
		for _, e := range entries {
			link(from, e)
		}
		if !hasDefault {
			link(from, exitBlk)
		}
	}
	for i, cs := range clauses {
		b.cur = entries[i]
		ft := false
		for j, st := range cs.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && j == len(cs.Body)-1 {
				ft = true
				break
			}
			b.stmt(st)
		}
		if ft && i+1 < len(entries) {
			b.edgeTo(entries[i+1])
		} else {
			b.edgeTo(exitBlk)
		}
	}
	for i, cs := range comms {
		b.cur = entries[len(clauses)+i]
		if cs.Comm != nil {
			b.stmt(cs.Comm)
		}
		b.stmtList(cs.Body)
		b.edgeTo(exitBlk)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exitBlk
}

func findLoop(stack []*loopCtx, label string) *loopCtx {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i]
		}
	}
	return nil
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// pendingLabel consumes the label recorded by a LabeledStmt wrapping s.
func (b *builder) pendingLabel(ast.Stmt) string {
	l := b.pending
	b.pending = ""
	return l
}
