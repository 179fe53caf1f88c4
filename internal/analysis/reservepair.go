package analysis

// reservepair proves, by forward dataflow over the CFG, that every batch
// reserved with search.Session.ReserveBatch is settled by exactly one
// CommitReservedBatch on every path to function exit. A leaked reservation
// charges budget and marks pairs seen without recording their costs, layout
// entries or trace events, silently breaking the Used() <= Budget and
// spend-accounting invariants the runtime tests check only probabilistically.
//
// Lattice: per ReserveBatch site, a two-bit mask {OUT, DONE} where OUT is a
// reserved, uncommitted batch and DONE a committed one; the meet is union.
// The site's ReserveBatch sets the mask to OUT, and a CommitReservedBatch on
// the same variable moves it to DONE. OUT reaching function exit, or reaching
// another ReserveBatch on the variable (which overwrites the reservation), is
// a leak; a commit reached with DONE set is a double settle.
//
// A site is checked when its argument is b or &b for a local variable or
// parameter b whose every use is an argument of the session batch calls
// (ReserveBatch, EvaluateReservedBatch, CommitReservedBatch) or a
// search.Batch method call. A batch held in a field, or whose variable is
// used any other way — sent on a channel, stored, passed to another function,
// captured by a closure — leaves its commit to code this function does not
// show, and the site is skipped (DESIGN §12). Function literals are analyzed
// as functions of their own.

import (
	"go/ast"
	"go/token"
	"go/types"
)

const (
	bsOut uint8 = 1 << iota
	bsDone
)

// ReservePair builds the reservation-leak analyzer.
func ReservePair() *Analyzer {
	a := &Analyzer{
		Name: "reservepair",
		Doc:  "every search.Session.ReserveBatch must be settled by exactly one CommitReservedBatch on every path to function exit",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkReserveBody(pass, fd, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						checkReserveBody(pass, fl, fl.Body)
					}
					return true
				})
			}
		}
	}
	return a
}

// batchCall returns the method name when call is one of the session batch
// calls, and "" otherwise.
func batchCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || len(call.Args) == 0 || !isMethodOn(fn, searchPkgPath, "Session") {
		return ""
	}
	switch fn.Name() {
	case "ReserveBatch", "EvaluateReservedBatch", "CommitReservedBatch":
		return fn.Name()
	}
	return ""
}

// batchVar resolves a batch call argument of the form b or &b to the
// variable b; any other expression yields nil.
func batchVar(info *types.Info, arg ast.Expr) *types.Var {
	arg = ast.Unparen(arg)
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = ast.Unparen(u.X)
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil || v.IsField() {
		return nil
	}
	return v
}

// batchUseOK reports whether the use id of a batch variable is one the
// analyzer can follow: the receiver of a search.Batch method call, or b/&b
// as the batch argument of a session batch call, outside any closure.
func batchUseOK(info *types.Info, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	for n := parents[id]; n != nil; n = parents[n] {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
	}
	// climb returns e's outermost enclosing parenthesis and its parent.
	climb := func(e ast.Node) (ast.Node, ast.Node) {
		p := parents[e]
		for {
			pe, ok := p.(*ast.ParenExpr)
			if !ok {
				return e, p
			}
			e, p = pe, parents[pe]
		}
	}
	e, p := climb(id)
	if sel, ok := p.(*ast.SelectorExpr); ok && sel.X == e {
		call, isCall := parents[sel].(*ast.CallExpr)
		fn, _ := info.Uses[sel.Sel].(*types.Func)
		return isCall && call.Fun == sel && fn != nil && isMethodOn(fn, searchPkgPath, "Batch")
	}
	if u, ok := p.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e, p = climb(u)
	}
	call, ok := p.(*ast.CallExpr)
	return ok && batchCall(info, call) != "" && call.Args[0] == e
}

// batchEvent is one ReserveBatch or CommitReservedBatch on a tracked
// variable.
type batchEvent struct {
	call   *ast.CallExpr
	v      *types.Var
	commit bool
}

// blockEvents collects a block's batch events in source order. Subtrees that
// other blocks represent (clause and range bodies) are not descended into,
// deferred calls count only in the exit block, where the CFG placed them,
// and function literals are skipped: tracked variables never occur in them.
func blockEvents(info *types.Info, b *Block, tracked map[*types.Var]bool) []batchEvent {
	var evs []batchEvent
	visit := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				name := batchCall(info, m)
				if name != "ReserveBatch" && name != "CommitReservedBatch" {
					break
				}
				if v := batchVar(info, m.Args[0]); tracked[v] {
					evs = append(evs, batchEvent{call: m, v: v, commit: name == "CommitReservedBatch"})
				}
			}
			return true
		})
	}
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Runs at exit.
		case *ast.CaseClause:
			for _, e := range n.List {
				visit(e)
			}
		case *ast.CommClause:
			visit(n.Comm)
		case *ast.RangeStmt:
			visit(n.Key)
			visit(n.Value)
			visit(n.X)
		default:
			visit(n)
		}
	}
	return evs
}

// checkReserveBody finds the trackable ReserveBatch sites of one function
// (fn is its FuncDecl or FuncLit) and runs the dataflow for each.
func checkReserveBody(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	parents := make(map[ast.Node]ast.Node)
	var sites []*ast.CallExpr
	var idents []*ast.Ident
	var stack []ast.Node
	lits := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				lits--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			lits++
		case *ast.Ident:
			idents = append(idents, n)
		case *ast.CallExpr:
			if lits == 0 && batchCall(pass.Info, n) == "ReserveBatch" {
				sites = append(sites, n)
			}
		}
		return true
	})

	tracked := make(map[*types.Var]bool)
	for _, call := range sites {
		if v := batchVar(pass.Info, call.Args[0]); v != nil && v.Pos() >= fn.Pos() && v.Pos() < fn.End() {
			tracked[v] = true
		}
	}
	for _, id := range idents {
		if v, ok := pass.Info.Uses[id].(*types.Var); ok && tracked[v] && !batchUseOK(pass.Info, parents, id) {
			delete(tracked, v)
		}
	}
	if len(tracked) == 0 {
		return
	}

	cfg := pass.Facts.CFG(body)
	events := make([][]batchEvent, len(cfg.Blocks))
	for i, b := range cfg.Blocks {
		events[i] = blockEvents(pass.Info, b, tracked)
	}
	doubles := make(map[token.Pos]bool)
	for _, call := range sites {
		if v := batchVar(pass.Info, call.Args[0]); tracked[v] {
			runBatchDataflow(pass, cfg, events, call, v, doubles)
		}
	}
}

// runBatchDataflow propagates one site's mask to a fixpoint, then replays
// every reachable block once to report leaks and double settles. doubles
// dedups double-settle reports across the sites of one function.
func runBatchDataflow(pass *Pass, cfg *CFG, events [][]batchEvent, site *ast.CallExpr, v *types.Var, doubles map[token.Pos]bool) {
	leak := false
	transfer := func(b *Block, mask uint8, report bool) uint8 {
		for _, ev := range events[b.Index] {
			switch {
			case ev.v != v:
			case ev.commit:
				if report && mask&bsDone != 0 && !doubles[ev.call.Pos()] {
					doubles[ev.call.Pos()] = true
					pass.Reportf(ev.call.Pos(), "CommitReservedBatch may settle a batch already committed since its ReserveBatch at %s", pass.Fset.Position(site.Pos()))
				}
				if mask != 0 {
					mask = bsDone
				}
			default:
				leak = leak || report && mask&bsOut != 0
				mask = 0
				if ev.call == site {
					mask = bsOut
				}
			}
		}
		return mask
	}

	// Seed every reachable block: the site's ReserveBatch generates its mask
	// regardless of the incoming state, so blocks must be processed at least
	// once even while all masks are still bottom.
	in := make([]uint8, len(cfg.Blocks))
	var work []*Block
	queued := make([]bool, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		if b.Reachable() {
			work = append(work, b)
			queued[b.Index] = true
		}
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		out := transfer(b, in[b.Index], false)
		for _, succ := range b.Succs {
			if out|in[succ.Index] != in[succ.Index] {
				in[succ.Index] |= out
				if !queued[succ.Index] {
					queued[succ.Index] = true
					work = append(work, succ)
				}
			}
		}
	}

	// The leak check at exit reads the state after the deferred calls.
	for _, b := range cfg.Blocks {
		if !b.Reachable() {
			continue
		}
		if final := transfer(b, in[b.Index], true); b == cfg.Exit && final&bsOut != 0 {
			leak = true
		}
	}
	if leak {
		pass.Reportf(site.Pos(), "batch reserved here may reach function exit or another ReserveBatch without CommitReservedBatch (a reservation leak breaks budget accounting)")
	}
}
