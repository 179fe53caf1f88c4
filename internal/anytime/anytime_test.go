package anytime

import (
	"testing"
	"time"

	"indextune/internal/schema"
	"indextune/internal/trace"
	"indextune/internal/workload"
)

// run steps a until done and returns the final progress.
func run(a *Session) Progress {
	for {
		if p, done := a.Step(); done {
			return p
		}
	}
}

func TestAnytimeRunsToCompletion(t *testing.T) {
	w := workload.ByName("tpch")
	a := New(w, Options{K: 5, TimeBudget: 30 * time.Second, Seed: 1})
	p := run(a)
	if p.CallsUsed == 0 {
		t.Fatal("no calls used")
	}
	if p.Config.Len() > 5 {
		t.Fatalf("|cfg| = %d", p.Config.Len())
	}
	if got := a.OracleImprovementPct(); got <= 0 {
		t.Fatalf("oracle improvement = %v", got)
	}
}

func TestAnytimeBestAvailableEveryStep(t *testing.T) {
	w := workload.ByName("tpch")
	a := New(w, Options{K: 5, TimeBudget: time.Minute, SliceCalls: 25, Seed: 2})
	prevImp := -1.0
	steps := 0
	for {
		p, done := a.Step()
		steps++
		if p.ImprovementPct < prevImp-1e-9 {
			t.Fatalf("best-so-far improvement decreased: %v -> %v", prevImp, p.ImprovementPct)
		}
		prevImp = p.ImprovementPct
		if a.best.Len() > 5 {
			t.Fatalf("best exceeds K at step %d", steps)
		}
		if done {
			break
		}
		if steps > 100 {
			t.Fatal("session never finished")
		}
	}
	if steps < 2 {
		t.Fatalf("expected multiple slices, got %d", steps)
	}
	if len(a.History()) == 0 {
		t.Fatal("history empty")
	}
}

func TestAnytimeMinImprovementStopsEarly(t *testing.T) {
	w := workload.ByName("tpch")
	unconstrained := New(w, Options{K: 10, TimeBudget: 2 * time.Minute, SliceCalls: 30, Seed: 3})
	full := run(unconstrained)

	constrained := New(w, Options{K: 10, TimeBudget: 2 * time.Minute, SliceCalls: 30, Seed: 3,
		MinImprovementPct: 10})
	early := run(constrained)
	if early.ImprovementPct < 10 {
		t.Fatalf("stopped below the minimum improvement: %v", early.ImprovementPct)
	}
	if early.CallsUsed > full.CallsUsed {
		t.Fatalf("constraint did not stop earlier: %d vs %d calls", early.CallsUsed, full.CallsUsed)
	}
}

func TestAnytimeStepAfterDoneIsStable(t *testing.T) {
	w := workload.ByName("tpch")
	a := New(w, Options{K: 3, TimeBudget: 10 * time.Second, Seed: 1})
	run(a)
	p1, done := a.Step()
	if !done {
		t.Fatal("session should stay done")
	}
	p2, _ := a.Step()
	if p1.CallsUsed != p2.CallsUsed {
		t.Fatal("stepping a finished session changed state")
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	w := workload.ByName("tpch")
	a := New(w, Options{K: 5, TimeBudget: 30 * time.Second, Seed: 4})
	run(a)
	before := a.s.Derived.Workload(a.best)
	refined := a.Refine()
	after := a.s.Derived.Workload(refined)
	if after > before+1e-9 {
		t.Fatalf("Refine worsened the recommendation: %v -> %v", before, after)
	}
}

func TestBestIndexesResolvable(t *testing.T) {
	w := workload.ByName("tpch")
	a := New(w, Options{K: 3, TimeBudget: 20 * time.Second, Seed: 5})
	run(a)
	idx := a.IndexesOf(a.best)
	if len(idx) != a.best.Len() {
		t.Fatalf("resolved %d indexes for %d ordinals", len(idx), a.best.Len())
	}
	for _, ix := range idx {
		if ix.ID() == "" {
			t.Fatal("empty index name")
		}
	}
}

// tinyWorkload is a one-table, one-query workload whose (query, config) pair
// space is far smaller than the budgets the saturation tests hand it.
func tinyWorkload() *workload.Workload {
	db := schema.NewDatabase("tiny")
	db.AddTable(schema.NewTable("t", 5_000_000,
		schema.Column{Name: "id", NDV: 5_000_000, Width: 8},
		schema.Column{Name: "k", NDV: 1000, Width: 8},
		schema.Column{Name: "v", NDV: 200, Width: 8},
	))
	b := workload.NewBuilder("only")
	r := b.Ref("t")
	b.Eq(r, "k", 0.001).Proj(r, "v")
	return &workload.Workload{Name: "tiny", DB: db, Queries: []*workload.Query{b.Build()}}
}

// TestAnytimeTerminatesWhenBudgetCannotBeSpent is the regression test for the
// infinite-loop bug: on a workload whose pair space saturates long before the
// budget runs out, every further slice spends zero calls and done was never
// set, so Run() spun forever. A slice that cannot spend must finish the
// session.
func TestAnytimeTerminatesWhenBudgetCannotBeSpent(t *testing.T) {
	w := tinyWorkload()
	// A huge time budget: far more calls than distinct pairs exist.
	a := New(w, Options{K: 2, TimeBudget: time.Hour, SliceCalls: 50, Seed: 1})
	deadline := 10_000
	for i := 0; ; i++ {
		if i > deadline {
			t.Fatalf("session did not terminate within %d slices (used %d of budget %d)",
				deadline, a.s.Used(), a.s.Budget)
		}
		if _, done := a.Step(); done {
			break
		}
	}
	if a.s.Used() >= a.s.Budget {
		t.Fatalf("test workload did not saturate: used %d of %d", a.s.Used(), a.s.Budget)
	}
}

// TestAnytimeFoldsRemainderIntoLastSlice pins the slice-splitting fix: with
// Budget not divisible by SliceCalls, the remainder is folded into the final
// slice instead of dribbling out as an undersized runt, the session spends
// the budget exactly, and the final progress fraction reaches 1.0.
func TestAnytimeFoldsRemainderIntoLastSlice(t *testing.T) {
	w := workload.ByName("tpch")
	// 28s / 280ms per call = budget 100; slices of 30 leave remainder 10.
	a := New(w, Options{K: 5, TimeBudget: 28 * time.Second, SliceCalls: 30, Seed: 2})
	if a.s.Budget != 100 {
		t.Fatalf("budget = %d, want 100 (per-call latency changed?)", a.s.Budget)
	}
	p := run(a)
	if p.CallsUsed != a.s.Budget {
		t.Fatalf("total spend %d != budget %d", p.CallsUsed, a.s.Budget)
	}
	if p.Budget != a.s.Budget || p.BudgetFraction != 1.0 {
		t.Fatalf("final progress budget=%d fraction=%v, want %d and 1.0",
			p.Budget, p.BudgetFraction, a.s.Budget)
	}
	// The last slice must not be a runt: its spend is at least SliceCalls
	// (pre-fix the trailing slice spent only Budget mod SliceCalls = 10).
	h := a.History()
	if len(h) < 2 {
		t.Fatalf("expected multiple slices, got %d", len(h))
	}
	lastSpend := h[len(h)-1].CallsUsed - h[len(h)-2].CallsUsed
	if lastSpend < 30 {
		t.Fatalf("final slice spent %d calls, want >= SliceCalls (remainder not folded)", lastSpend)
	}
}

// TestAnytimeTraceSliceEvents wires a recorder through the anytime wrapper
// and checks slice snapshots and the spend invariant.
func TestAnytimeTraceSliceEvents(t *testing.T) {
	w := workload.ByName("tpch")
	rec := trace.New(nil)
	a := New(w, Options{K: 5, TimeBudget: 28 * time.Second, SliceCalls: 30, Seed: 3, Trace: rec})
	run(a)
	sum := rec.Summary("anytime", a.s.Budget)
	if sum.SpendTotal() != a.s.Used() {
		t.Fatalf("traced spend %d != used %d", sum.SpendTotal(), a.s.Used())
	}
	if sum.Slices != int64(len(a.History())) {
		t.Fatalf("traced slices %d != history %d", sum.Slices, len(a.History()))
	}
	if len(sum.Curve) == 0 {
		t.Fatal("no improvement-vs-spend curve points")
	}
}

// TestRefineResultIsolatedFromCaller pins the satellite fix: Refine must
// Clone the greedy result before storing it as the session's best, so
// mutating the returned set never corrupts the session best or later
// snapshots.
func TestRefineResultIsolatedFromCaller(t *testing.T) {
	w := workload.ByName("tpch")
	a := New(w, Options{K: 5, TimeBudget: 30 * time.Second, Seed: 6})
	run(a)
	refined := a.Refine()
	want := a.best.Clone()
	// Mutate the returned set in place: grow it well past K.
	for ord := 0; ord < 64; ord++ {
		refined.Add(ord)
	}
	got := a.best
	if !got.Equal(want) {
		t.Fatalf("mutating Refine's return changed the session best: %v -> %v", want, got)
	}
	if got.Len() > 5 {
		t.Fatalf("session best exceeds K after caller mutation: %d", got.Len())
	}
}

// An anytime session with a permissive StopEpsilon finishes via the
// early-stop rule: done with Reason "early-stop", the session reports the
// refund, and the step after stays stable.
func TestAnytimeEarlyStopReason(t *testing.T) {
	w := workload.ByName("tpch")
	a := New(w, Options{K: 5, TimeBudget: time.Minute, SliceCalls: 200, Seed: 7, StopEpsilon: 1.0})
	p := run(a)
	if !a.Stopped() {
		t.Fatal("epsilon=1 session should early-stop")
	}
	if p.Reason != "early-stop" {
		t.Fatalf("Reason = %q, want early-stop", p.Reason)
	}
	if a.RefundedBudget() <= 0 {
		t.Fatalf("RefundedBudget = %d, want > 0", a.RefundedBudget())
	}
	if a.RefundedBudget()+a.s.Used() != a.s.Budget {
		t.Fatalf("refund %d + used %d != budget %d", a.RefundedBudget(), a.s.Used(), a.s.Budget)
	}
	p2, done := a.Step()
	if !done || p2.Reason != "early-stop" {
		t.Fatalf("step after stop: done=%v reason=%q", done, p2.Reason)
	}
}

// StopEpsilon = 0 keeps the anytime wrapper's behavior unchanged: the
// session runs to budget exhaustion (or saturation) and never reports an
// early stop.
func TestAnytimeNoStopWithZeroEpsilon(t *testing.T) {
	w := workload.ByName("tpch")
	a := New(w, Options{K: 5, TimeBudget: 30 * time.Second, Seed: 8})
	p := run(a)
	if a.Stopped() || p.Reason == "early-stop" {
		t.Fatalf("epsilon=0 session stopped early (reason %q)", p.Reason)
	}
	if p.Reason == "" {
		t.Fatal("finished session must report a reason")
	}
}
