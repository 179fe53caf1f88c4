package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFuncs parses src (a complete file body without the package clause) and
// returns each function's body keyed by name.
func parseFuncs(t *testing.T, src string) map[string]*ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := make(map[string]*ast.BlockStmt)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out[fd.Name.Name] = fd.Body
		}
	}
	return out
}

func countEdges(c *CFG) int {
	n := 0
	for _, b := range c.Blocks {
		n += len(b.Succs)
	}
	return n
}

// predCount counts b's predecessors (the CFG keeps successor lists only).
func predCount(c *CFG, b *Block) int {
	n := 0
	for _, from := range c.Blocks {
		for _, to := range from.Succs {
			if to == b {
				n++
			}
		}
	}
	return n
}

// reachableBlocks counts blocks reachable from Entry.
func reachableBlocks(c *CFG) int {
	n := 0
	for _, b := range c.Blocks {
		if b.Reachable() {
			n++
		}
	}
	return n
}

func TestCFGIfDiamond(t *testing.T) {
	bodies := parseFuncs(t, `
func f(a bool) int {
	if a {
		return 1
	}
	return 2
}`)
	c := NewCFG(bodies["f"])
	// entry(cond), exit, then, after.
	if got := len(c.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
	// entry->then, entry->after, then->exit, after->exit.
	if got := countEdges(c); got != 4 {
		t.Fatalf("edges = %d, want 4", got)
	}
	if got := len(c.Entry.Succs); got != 2 {
		t.Fatalf("entry out-degree = %d, want 2", got)
	}
	if got := reachableBlocks(c); got != 4 {
		t.Errorf("reachable blocks = %d, want 4", got)
	}
}

func TestCFGForLoop(t *testing.T) {
	bodies := parseFuncs(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`)
	c := NewCFG(bodies["f"])
	// entry, exit, head, body, after, post.
	if got := len(c.Blocks); got != 6 {
		t.Fatalf("blocks = %d, want 6", got)
	}
	// entry->head, head->body (cond), head->after (!cond), body->post,
	// post->head, after->exit.
	if got := countEdges(c); got != 6 {
		t.Fatalf("edges = %d, want 6", got)
	}
	// The loop head has two predecessors (entry edge + back edge) and two
	// successors (body, after).
	var head *Block
	for _, b := range c.Blocks {
		if predCount(c, b) == 2 && b != c.Exit {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no loop head with 2 predecessors found")
	}
	if len(head.Succs) != 2 {
		t.Errorf("loop head out-degree = %d, want 2", len(head.Succs))
	}
	if !head.Reachable() || !c.Exit.Reachable() {
		t.Errorf("loop head and exit must be reachable")
	}
}

func TestCFGDeferAtExit(t *testing.T) {
	bodies := parseFuncs(t, `
func f(a bool) {
	defer release()
	defer func() { cleanup() }()
	if a {
		return
	}
	work()
}`)
	c := NewCFG(bodies["f"])
	// Both deferred calls sit in the exit block, most recent first.
	calls := 0
	for _, n := range c.Exit.Nodes {
		if _, ok := n.(*ast.CallExpr); ok {
			calls++
		}
	}
	if calls != 2 {
		t.Fatalf("exit block holds %d deferred calls, want 2", calls)
	}
	if first, ok := c.Exit.Nodes[0].(*ast.CallExpr); !ok || !isFuncLitCall(first) {
		t.Errorf("deferred calls must run LIFO: func literal first, got %T", c.Exit.Nodes[0])
	}
}

func isFuncLitCall(call *ast.CallExpr) bool {
	_, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	return ok
}

func TestCFGPanicTerminates(t *testing.T) {
	bodies := parseFuncs(t, `
func f(a bool) {
	if !a {
		panic("no")
	}
	work()
}

func g() {
	panic("always")
	dead()
}`)
	c := NewCFG(bodies["f"])
	// The panic block must have no successors; the exit keeps exactly one
	// predecessor (the fall-through path).
	var panicBlk *Block
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isTerminatingCall(es.X) {
				panicBlk = b
			}
		}
	}
	if panicBlk == nil {
		t.Fatalf("panic block not found")
	}
	if len(panicBlk.Succs) != 0 {
		t.Errorf("panic block has %d successors, want 0", len(panicBlk.Succs))
	}
	if got := predCount(c, c.Exit); got != 1 {
		t.Errorf("exit has %d predecessors, want 1", got)
	}
	// Code after an unconditional panic, and the exit behind it, are
	// unreachable.
	g := NewCFG(bodies["g"])
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && !isTerminatingCall(es.X) && b.Reachable() {
				t.Errorf("statement after panic is in reachable block %d", b.Index)
			}
		}
	}
	if g.Exit.Reachable() {
		t.Errorf("exit of an always-panicking function must be unreachable")
	}
}

// The torture function exercises nested loops, labeled break/continue, goto,
// select, and defer-in-loop in one body. The structural invariants — exact
// block/edge counts, reachability of the exit and of the switch reached only
// by labeled break and goto — pin the builder's shape.
const cfgTortureSrc = `
func torture(ch chan int, n int) int {
	s := 0
	defer close(ch)
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue outer
			}
			if j > 5 {
				break outer
			}
			defer log(j)
			select {
			case v := <-ch:
				s += v
			case ch <- j:
				continue
			default:
				goto done
			}
			s++
		}
	}
done:
	switch {
	case s > 10:
		s = 10
	case s < 0:
		s = 0
	default:
		s++
	}
	return s
}`

func TestCFGTorture(t *testing.T) {
	bodies := parseFuncs(t, cfgTortureSrc)
	c := NewCFG(bodies["torture"])

	if got := len(c.Blocks); got != 24 {
		t.Errorf("torture blocks = %d, want 24", got)
	}
	if got := countEdges(c); got != 31 {
		t.Errorf("torture edges = %d, want 31", got)
	}
	reach := reachableBlocks(c)
	if reach < 20 {
		t.Errorf("reachable blocks = %d, want >= 20", reach)
	}
	// The labeled-break and goto targets converge on the "done" switch: its
	// dispatch block (the one branching to the three clause blocks) has >= 2
	// predecessors and is reachable, and so is the exit.
	var dispatch *Block
	for _, b := range c.Blocks {
		if len(b.Succs) == 3 {
			if _, ok := b.Succs[0].Nodes[0].(*ast.CaseClause); ok {
				dispatch = b
			}
		}
	}
	if dispatch == nil {
		t.Fatalf("final switch dispatch block not found")
	}
	if got := predCount(c, dispatch); got < 2 {
		t.Errorf("switch dispatch preds = %d, want >= 2 (loop exit + goto)", got)
	}
	if !dispatch.Reachable() || !c.Exit.Reachable() {
		t.Errorf("final switch dispatch and exit must be reachable")
	}
	// Deferred calls (close + defer-in-loop log) land in the exit block.
	if len(c.Exit.Nodes) != 2 {
		t.Errorf("exit holds %d deferred calls, want 2", len(c.Exit.Nodes))
	}
	// The select emits one block per comm clause plus the default.
	commBlocks := 0
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.CommClause); ok {
				commBlocks++
			}
		}
	}
	if commBlocks != 3 {
		t.Errorf("comm clause blocks = %d, want 3", commBlocks)
	}
}

// TestCFGGotoBackward pins that a backward goto forms a cycle: the label
// block must be reachable and have two predecessors (fallthrough + goto).
func TestCFGGotoBackward(t *testing.T) {
	bodies := parseFuncs(t, `
func f(n int) int {
	s := 0
again:
	s++
	if s < n {
		goto again
	}
	return s
}`)
	c := NewCFG(bodies["f"])
	var label *Block
	for _, b := range c.Blocks {
		if predCount(c, b) == 2 && b != c.Exit {
			label = b
		}
	}
	if label == nil {
		t.Fatalf("backward goto target with 2 predecessors not found")
	}
	if !label.Reachable() || !c.Exit.Reachable() {
		t.Errorf("goto label and exit must be reachable")
	}
}
