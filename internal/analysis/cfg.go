package analysis

// cfg.go builds intraprocedural control-flow graphs from go/ast function
// bodies: basic blocks, successor lists and reachability from the entry. The
// builder covers the full branching surface of the statement grammar —
// if/else chains, for/range loops, (type) switches, select, goto and labeled
// break/continue — and models two execution details the analyzers depend on:
//
//   - Deferred calls run on every path to function exit, so each DeferStmt's
//     call expression is placed in the Exit block (in LIFO order). A deferred
//     s.CommitReservedBatch therefore settles a batch on all paths.
//   - Calls that never return (panic, os.Exit, log.Fatal*, runtime.Goexit)
//     terminate their block with no successor, so code after them is
//     unreachable and obligations on the panicking path are not reported.

import (
	"go/ast"
	"go/token"
	"strings"
)

// CFG is the control-flow graph of one function body. Entry is the unique
// start block; Exit is the unique normal-return block (deferred calls live
// there). Exit may be unreachable when the function cannot return normally.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// Block is a basic block: a maximal straight-line sequence of AST nodes.
// Nodes holds statements and, for dispatch blocks, condition expressions or
// clause markers in source order. A CaseClause/CommClause node leads the
// block executing that clause's body.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block

	reachable bool
}

// Reachable reports whether the block is reachable from Entry.
func (b *Block) Reachable() bool { return b.reachable }

// loopTarget is one enclosing breakable construct on the builder's stack.
// cont is nil for switch/select (continue skips them).
type loopTarget struct {
	label string
	brk   *Block
	cont  *Block
}

type cfgBuilder struct {
	c        *CFG
	cur      *Block // nil after a terminator (return/break/goto/panic)
	targets  []loopTarget
	labels   map[string]*Block // label name -> block starting the labeled stmt
	pending  string            // label attached to the statement being built
	deferred []*ast.DeferStmt
}

// NewCFG builds the control-flow graph of a function or closure body and
// marks the blocks reachable from Entry.
func NewCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{}
	b := &cfgBuilder{c: c, labels: make(map[string]*Block)}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	b.cur = c.Entry
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, c.Exit)
	}
	// Deferred calls execute on exit in LIFO order.
	for i := len(b.deferred) - 1; i >= 0; i-- {
		c.Exit.Nodes = append(c.Exit.Nodes, b.deferred[i].Call)
	}
	markReachable(c.Entry)
	return c
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.c.Blocks)}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

// block returns the current block, starting a fresh (unreachable) one after a
// terminator so statement building can continue.
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// labelBlock returns (creating on first use, whether by goto or by the
// labeled statement itself) the block a label jumps to.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// findTarget resolves a break/continue to its enclosing construct.
func (b *cfgBuilder) findTarget(label string, isContinue bool) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != "" && t.label != label {
			continue
		}
		if isContinue {
			if t.cont != nil {
				return t.cont
			}
			if label != "" {
				return nil
			}
			continue
		}
		return t.brk
	}
	return nil
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.pending
	b.pending = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, lb)
		}
		b.cur = lb
		b.pending = s.Label.Name
		b.stmt(s.Stmt)
		b.pending = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.block()
		then := b.newBlock()
		after := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmts(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.edge(b.block(), head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.targets = append(b.targets, loopTarget{label: label, brk: after, cont: cont})
		b.cur = body
		b.stmts(s.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		if post != nil {
			b.cur = post
			b.add(s.Post)
			b.edge(post, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.block(), head)
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.targets = append(b.targets, loopTarget{label: label, brk: after, cont: head})
		b.cur = body
		b.stmts(s.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt:
		b.switchStmt(label, s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchStmt(label, s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		dispatch := b.block()
		after := b.newBlock()
		b.targets = append(b.targets, loopTarget{label: label, brk: after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			blk.Nodes = append(blk.Nodes, cc)
			b.edge(dispatch, blk)
			b.cur = blk
			b.stmts(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		// An empty select blocks forever: after keeps no predecessors and
		// everything below it is unreachable, which is exactly right.
		b.cur = after

	case *ast.BranchStmt:
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			b.add(s)
			if t := b.findTarget(name, false); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.CONTINUE:
			b.add(s)
			if t := b.findTarget(name, true); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.GOTO:
			b.add(s)
			b.edge(b.cur, b.labelBlock(name))
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by switchStmt; a stray fallthrough is invalid Go.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.c.Exit)
		b.cur = nil

	case *ast.DeferStmt:
		b.add(s)
		b.deferred = append(b.deferred, s)

	case *ast.ExprStmt:
		b.add(s)
		if isTerminatingCall(s.X) {
			b.cur = nil
		}

	default:
		// AssignStmt, DeclStmt, GoStmt, SendStmt, IncDecStmt, EmptyStmt.
		b.add(s)
	}
}

// switchStmt builds both expression and type switches. tag is nil for type
// switches and tagless switches; assign is the type-switch assign statement.
func (b *cfgBuilder) switchStmt(label string, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	dispatch := b.block()
	after := b.newBlock()
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	dflt := after // taken when no clause matches and there is no default
	for i, cl := range clauses {
		blocks[i] = b.newBlock()
		blocks[i].Nodes = append(blocks[i].Nodes, cl)
		if cl.List == nil {
			dflt = blocks[i]
			continue
		}
		b.edge(dispatch, blocks[i])
	}
	b.edge(dispatch, dflt)
	b.targets = append(b.targets, loopTarget{label: label, brk: after})
	for i, cl := range clauses {
		b.cur = blocks[i]
		stmts := cl.Body
		ft := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = true
				stmts = stmts[:n-1]
			}
		}
		b.stmts(stmts)
		if b.cur != nil {
			if ft && i+1 < len(clauses) {
				b.edge(b.cur, blocks[i+1])
			} else {
				b.edge(b.cur, after)
			}
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = after
}

// isTerminatingCall reports whether x is a call that never returns. The check
// is syntactic (panic builtin, os.Exit, log.Fatal*, runtime.Goexit) — good
// enough for the call shapes this module uses.
func isTerminatingCall(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			switch {
			case id.Name == "os" && fun.Sel.Name == "Exit":
				return true
			case id.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
				return true
			case id.Name == "runtime" && fun.Sel.Name == "Goexit":
				return true
			}
		}
	}
	return false
}

// markReachable flags every block reachable from b by depth-first search.
func markReachable(b *Block) {
	b.reachable = true
	for _, to := range b.Succs {
		if !to.reachable {
			markReachable(to)
		}
	}
}
