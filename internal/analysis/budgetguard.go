package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// whatifPkgPath is the package whose Optimizer the budget contract guards.
const whatifPkgPath = "indextune/internal/whatif"

// searchPkgPath and traceRecorderPkgPath locate the Session and Recorder
// types of the derived-answer rule: code that answers a what-if request from
// monotonicity-derived bounds must never charge the session budget.
const (
	searchPkgPath        = "indextune/internal/search"
	traceRecorderPkgPath = "indextune/internal/trace"
)

// optimizerCostMethods are the whatif.Optimizer methods that answer cost
// queries. Reaching one from an enumeration algorithm without a session
// charging method on the path would bypass the session's budget charging
// (and its virtual-time accounting); chargepath enforces that every such
// path goes through search.Session (or, for final-configuration evaluation,
// Session.OracleImprovement).
var optimizerCostMethods = map[string]bool{
	"WhatIf":      true,
	"WhatIfBatch": true,
	"BaseCost":    true,
	"PeekCost":    true,
}

// algorithmPackages are the enumeration-algorithm packages: they must never
// import the optimizer package (budgetguard), and must route every cost
// query through search.Session (chargepath). Entries match any import path containing them as a segment
// run, so the golden testdata trees under internal/analysis/testdata are
// matched too.
var algorithmPackages = []string{
	"internal/greedy",
	"internal/core",
	"internal/bandit",
	"internal/dqn",
	"internal/dta",
	"internal/anytime",
	"internal/algo",
}

// costGuardedPackages additionally covers the packages that hold a shared
// oracle without owning the budget contract: the figure harness (one
// optimizer per runner, PR 1) and the daemon's job layer (one optimizer per
// schema, shared across jobs). They may hold the optimizer but may not
// query costs on it directly outside tests — every spend must flow through
// a search.Session, so the job layer cannot launder calls around a job's
// budget (chargepath).
var costGuardedPackages = append([]string{"internal/experiments", "internal/jobs"}, algorithmPackages...)

// sessionChargeMethods are the search.Session methods that charge (or may
// charge) what-if budget. None of them may appear inside a derived-answer
// region: a cost answered from derived bounds is budget-free by contract.
var sessionChargeMethods = map[string]bool{
	"Reserve":             true,
	"ReserveBatch":        true,
	"CommitReserved":      true,
	"CommitReservedBatch": true,
	"WhatIf":              true,
}

// recorderChargeMethods are the trace.Recorder events that witness a budget
// charge. Emitting one alongside a derived-bound event in the same decision
// block means a "free" derived answer was charged after all.
var recorderChargeMethods = map[string]bool{
	"Reserve": true,
	"Commit":  true,
}

// tracePackages is the observability layer. The dependency points one way:
// enumeration packages may import internal/trace to record events, but
// internal/trace must never depend on the optimizer — tracing observes
// budget decisions, it cannot be in a position to make cost queries.
var tracePackages = []string{"internal/trace"}

// NewBudgetGuard builds the budgetguard analyzer. A nil guarded list uses
// the default algorithm-package set. Direct optimizer cost calls are
// chargepath's to report: it sees the same call sites plus every laundered
// path to them.
func NewBudgetGuard(guarded []string) *Analyzer {
	if guarded == nil {
		guarded = algorithmPackages
	}
	a := &Analyzer{
		Name: "budgetguard",
		Doc:  "algorithm packages must not import whatif; internal/trace must not import the optimizer; derived-bound answers and stop decisions must never charge budget",
	}
	a.Run = func(pass *Pass) {
		// The derived-answer rule applies everywhere the search/trace types
		// are reachable — including inside internal/search itself, where the
		// interception fast path lives.
		for _, f := range pass.Files {
			checkDerivedAnswers(pass, f)
			checkStopDecisions(pass, f)
		}
		var msg string
		switch {
		case pathGuarded(pass.Path, tracePackages):
			msg = "internal/trace imports %s; the trace layer observes budget decisions and must not depend on the optimizer"
		case pathGuarded(pass.Path, guarded):
			// An enumeration algorithm has no business constructing or
			// holding an optimizer.
			msg = "algorithm package imports %s; construct optimizers in search or the public API instead"
		default:
			return
		}
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == whatifPkgPath {
					pass.Reportf(imp.Pos(), msg, whatifPkgPath)
				}
			}
		}
	}
	return a
}

// pathGuarded reports whether pkgPath contains one of the guarded entries as
// a complete segment run (e.g. "internal/greedy" matches
// "indextune/internal/greedy" and testdata trees embedding that suffix).
func pathGuarded(pkgPath string, guarded []string) bool {
	p := "/" + pkgPath + "/"
	for _, g := range guarded {
		if strings.Contains(p, "/"+g+"/") {
			return true
		}
	}
	return false
}

// isOptimizerMethod reports whether f is a method with receiver
// whatif.Optimizer or *whatif.Optimizer.
func isOptimizerMethod(f *types.Func) bool {
	return isMethodOn(f, whatifPkgPath, "Optimizer")
}

// isMethodOn reports whether f is a method whose (possibly pointer) receiver
// is the named type pkgPath.typeName.
func isMethodOn(f *types.Func, pkgPath, typeName string) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// chargeCallName classifies call as a budget-charging call and returns its
// display name ("Session.Reserve", "Recorder.Commit"), or ok=false.
func chargeCallName(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	switch {
	case sessionChargeMethods[fn.Name()] && isMethodOn(fn, searchPkgPath, "Session"):
		return "Session." + fn.Name(), true
	case recorderChargeMethods[fn.Name()] && isMethodOn(fn, traceRecorderPkgPath, "Recorder"):
		return "Recorder." + fn.Name(), true
	}
	return "", false
}

// chargeForbidder returns a check that reports every budget-charging call
// inside a region as "<call> inside <desc>; <reason>", where desc names the
// region. Regions may overlap; each call site is reported once.
func chargeForbidder(pass *Pass, reason string) func(region ast.Node, desc string) {
	reported := make(map[token.Pos]bool)
	return func(region ast.Node, desc string) {
		ast.Inspect(region, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || reported[call.Pos()] {
				return true
			}
			if name, charging := chargeCallName(pass.Info, call); charging {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(), "%s inside %s; %s", name, desc, reason)
			}
			return true
		})
	}
}

// checkDerivedAnswers enforces the derived-answer contract (DESIGN §10): a
// what-if request answered from monotonicity-derived cost bounds is
// budget-free, so no budget may be reserved, committed, or trace-witnessed
// as charged inside the decision block emitting a trace.Recorder.DerivedBound
// event (the interception producer in internal/search, and any other).
func checkDerivedAnswers(pass *Pass, f *ast.File) {
	forbidCharges := chargeForbidder(pass, "derived-bound answers are budget-free and must never charge (call Reserve) or witness a charge")
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Name() != "DerivedBound" || !isMethodOn(fn, traceRecorderPkgPath, "Recorder") {
			return true
		}
		if region := derivedRegion(f, call.Pos()); region != nil {
			forbidCharges(region, "the decision block of a derived-bound trace event")
		}
		return true
	})
}

// checkStopDecisions enforces the early-stopping contract (DESIGN §11): the
// stop decision only refunds budget, it never spends it. Once
// search.Session.CheckStop reports a stop, every remaining call is refunded,
// so charging budget — or trace-witnessing a charge — inside a stop-decision
// region would spend calls the decision just declared unnecessary. Two
// regions are checked:
//
//  1. the success branch of `if s.CheckStop(...) { ... }` (the stop
//     consumers at enumerator commit points), and
//  2. the decision block emitting a trace.Recorder.Stop event (the stop
//     producer inside internal/search).
func checkStopDecisions(pass *Pass, f *ast.File) {
	forbidCharges := chargeForbidder(pass, "a stop decision refunds budget and must never charge (call Reserve) or witness a charge")
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if block := stopSuccessBlock(pass.Info, ifs); block != nil {
			forbidCharges(block, "a CheckStop success branch")
		}
		return true
	})

	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Name() != "Stop" || !isMethodOn(fn, traceRecorderPkgPath, "Recorder") {
			return true
		}
		if region := derivedRegion(f, call.Pos()); region != nil {
			forbidCharges(region, "the decision block of a stop trace event")
		}
		return true
	})
}

// stopSuccessBlock returns the branch of ifs taken when its
// search.Session.CheckStop condition reported a stop, or nil when ifs is not
// a stop check. The call sits in the condition itself
// (`if s.CheckStop(cfg) { ... }`), possibly negated.
func stopSuccessBlock(info *types.Info, ifs *ast.IfStmt) ast.Node {
	cond := ast.Unparen(ifs.Cond)
	negated := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond = ast.Unparen(u.X)
		negated = true
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "CheckStop" || !isMethodOn(fn, searchPkgPath, "Session") {
		return nil
	}
	if negated {
		return ifs.Else // may be nil: no stop branch to check
	}
	return ifs.Body
}

// derivedRegion returns the decision region enclosing pos: the body (or else
// branch) of the innermost enclosing if statement whose condition is not a
// nil guard, the innermost case clause, or the enclosing function body.
// Nil-guard ifs (`if s.Trace != nil`) are skipped because they wrap optional
// tracing, not the derivation decision itself.
func derivedRegion(f *ast.File, pos token.Pos) ast.Node {
	var path []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	for i := len(path) - 1; i >= 0; i-- {
		switch n := path[i].(type) {
		case *ast.CaseClause, *ast.CommClause:
			return n
		case *ast.BlockStmt:
			if i == 0 {
				return n
			}
			switch parent := path[i-1].(type) {
			case *ast.IfStmt:
				if !isNilGuard(parent.Cond) {
					return n
				}
			case *ast.FuncDecl, *ast.FuncLit:
				return n
			}
		}
	}
	return nil
}

// isNilGuard reports whether cond compares something against nil.
func isNilGuard(cond ast.Expr) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return false
	}
	return isNilIdent(b.X) || isNilIdent(b.Y)
}

func isNilIdent(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && id.Name == "nil"
}
