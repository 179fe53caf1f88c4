package analysis

// chargepath enforces the budget contract at whole-call-graph soundness:
// every module path from algorithm, experiment, or job code to a
// whatif.Optimizer cost method must pass through a search.Session charging
// method. It reports a direct o.WhatIf(...) in a guarded package as well as
// the laundered version — a helper (possibly in another package, possibly
// behind an interface) that eventually reaches the optimizer without going
// through the session.
//
// The analysis is a reverse reachability fixpoint over the module call
// graph: a function is "tainted" when some outgoing edge reaches an
// Optimizer cost method without first crossing a sanctioned gateway — the
// Session charging/evaluation methods and the session/optimizer
// constructors, whose direct optimizer access is the audited budget
// machinery itself. Devirtualized interface edges and method-value
// references participate, so hiding the optimizer behind an interface or a
// callback does not evade the check. Function values that escape the module
// and reflection remain out of scope (DESIGN §12).

import (
	"go/ast"
	"go/types"
	"strings"
)

// sessionGatewayMethods are the search.Session methods sanctioned to reach
// the optimizer: they implement the budget contract itself.
var sessionGatewayMethods = map[string]bool{
	"WhatIf":                true,
	"EvaluateReserved":      true,
	"ReserveBatch":          true,
	"EvaluateReservedBatch": true,
	"CommitReservedBatch":   true,
	"OracleImprovement":     true,
	"CheckStop":             true,
	"CheckCancel":           true,
}

// searchGatewayFuncs are package-level search functions sanctioned to touch
// the optimizer (session construction probes budget-exempt baselines).
var searchGatewayFuncs = map[string]bool{
	"NewSession":   true,
	"NewOptimizer": true,
}

func isChargeGateway(n *CGNode) bool {
	f := n.Func
	if f == nil {
		return false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return sessionGatewayMethods[f.Name()] && isMethodOn(f, searchPkgPath, "Session")
	}
	return funcPkgPath(f) == searchPkgPath && searchGatewayFuncs[f.Name()]
}

func isCostMethodNode(n *CGNode) bool {
	return n.Func != nil && optimizerCostMethods[n.Func.Name()] && isOptimizerMethod(n.Func)
}

// chargeTaint maps each tainted node to a witness edge on a path toward a
// cost method, for readable reports.
type chargeTaint map[*CGNode]*CGEdge

// buildChargeTaint runs the reverse reachability fixpoint. Nodes are visited
// in sorted symbol order so the recorded witness edges (and therefore the
// report messages) are deterministic.
func buildChargeTaint(g *CallGraph) chargeTaint {
	tainted := make(chargeTaint)
	syms := g.SortedSymbols()
	for changed := true; changed; {
		changed = false
		for _, sym := range syms {
			n := g.Nodes[sym]
			if tainted[n] != nil || isChargeGateway(n) || isCostMethodNode(n) {
				continue
			}
			for _, e := range n.Out {
				callee := e.Callee
				if isChargeGateway(callee) {
					continue
				}
				if isCostMethodNode(callee) || tainted[callee] != nil {
					tainted[n] = e
					changed = true
					break
				}
			}
		}
	}
	return tainted
}

// taintPath renders the witness chain from n to the cost method it reaches.
func taintPath(tainted chargeTaint, start *CGNode) string {
	var hops []string
	seen := make(map[*CGNode]bool)
	for n := start; n != nil && !seen[n]; {
		seen[n] = true
		hops = append(hops, displayName(n))
		if isCostMethodNode(n) {
			break
		}
		e := tainted[n]
		if e == nil {
			break
		}
		n = e.Callee
	}
	return strings.Join(hops, " -> ")
}

// displayName shortens a symbol to pkg.(Recv).Name form for messages.
func displayName(n *CGNode) string {
	s := string(n.Sym)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// ChargePath builds the interprocedural charge-path analyzer.
func ChargePath() *Analyzer {
	a := &Analyzer{
		Name: "chargepath",
		Doc:  "every module path reaching whatif.Optimizer cost methods must pass through a search.Session charging method",
	}
	a.Run = func(pass *Pass) {
		if pass.Facts == nil || !pathGuarded(pass.Path, costGuardedPackages) {
			return
		}
		g := pass.Facts.CallGraph()
		tainted, _ := pass.Facts.Cached("chargepath.taint", func() any {
			return buildChargeTaint(g)
		}).(chargeTaint)

		reported := make(map[ast.Node]bool)
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := g.NodeOf(obj)
				if n == nil {
					continue
				}
				for _, e := range n.Out {
					if reported[e.Site] {
						continue
					}
					var path string
					switch {
					case isCostMethodNode(e.Callee):
						path = displayName(n) + " -> " + displayName(e.Callee)
					case !isChargeGateway(e.Callee) && tainted[e.Callee] != nil:
						path = displayName(n) + " -> " + taintPath(tainted, e.Callee)
					default:
						continue
					}
					reported[e.Site] = true
					kind := "call"
					if e.ValueRef {
						kind = "reference"
					}
					pass.Reportf(e.Site.Pos(), "%s reaches whatif.Optimizer cost method without a search.Session charging method on the path: %s", kind, path)
				}
			}
		}
	}
	return a
}
