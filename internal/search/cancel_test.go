package search

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"indextune/internal/iset"
	"indextune/internal/trace"
)

// pollCtx is a context whose Done channel reads as closed from poll
// after+1 on, so a test can land a cancellation at an exact charge attempt
// and count how often the session polls.
type pollCtx struct {
	context.Context
	polls, after int
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *pollCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls > c.after {
		return closedDone
	}
	return nil
}

func newPollCtx(after int) *pollCtx {
	return &pollCtx{Context: context.Background(), after: after}
}

// Cancellation is observed on the charge path only: repeats stay free cache
// hits, the first unseen pair after the cancel is refused like an
// over-budget pair, and an exhausted session never polls again.
func TestCancelObservedAtChargeAttempt(t *testing.T) {
	s := newTestSession(t, 100)
	ctx := newPollCtx(2)
	s.Ctx = ctx
	rec := trace.New(nil)
	s.Trace = rec
	for i := 0; i < 2; i++ {
		if _, ok := s.WhatIf(i, iset.FromOrdinals(i)); !ok {
			t.Fatalf("call %d before the cancel was refused", i)
		}
	}
	if _, ok := s.WhatIf(0, iset.FromOrdinals(0)); !ok || ctx.polls != 2 {
		t.Fatalf("a repeat must be a free cache hit without a poll: ok=%v polls=%d", ok, ctx.polls)
	}
	if _, ok := s.WhatIf(2, iset.FromOrdinals(2)); ok {
		t.Fatal("the charge attempt after the cancel must be refused")
	}
	if !s.Cancelled() || !s.Exhausted() || s.Stopped() {
		t.Fatalf("cancelled=%v exhausted=%v stopped=%v", s.Cancelled(), s.Exhausted(), s.Stopped())
	}
	if r := s.Reserve(3, iset.FromOrdinals(3)); r != ReserveExhausted {
		t.Fatalf("Reserve after the cancel = %v, want ReserveExhausted", r)
	}
	if ctx.polls != 3 {
		t.Fatalf("polls = %d, want one per charge attempt and none once exhausted (3)", ctx.polls)
	}
	if s.Used() != 2 || s.RefundedBudget() != 98 {
		t.Fatalf("used %d refunded %d, want 2 and 98", s.Used(), s.RefundedBudget())
	}
	sum := rec.Summary("test", s.Budget)
	if sum.Cancellations != 1 || sum.RefundedBudget != 98 {
		t.Fatalf("summary cancellations %d refund %d, want 1 and 98", sum.Cancellations, sum.RefundedBudget)
	}
}

// A cancellation landing inside a batch leaves the same costs, counters and
// event stream as the sequential WhatIf calls: the cancel event sits
// between the earlier pairs' events and the refused pair's fallback.
func TestCancelBatchStreamMatchesSequential(t *testing.T) {
	pairs := []struct {
		qi  int
		cfg iset.Set
	}{
		{0, iset.FromOrdinals(0)}, // cached below
		{1, iset.FromOrdinals(1)}, // charged
		{2, iset.FromOrdinals(2)}, // observes the cancel
		{3, iset.FromOrdinals(3)}, // refused, no poll
	}
	run := func(batched bool) ([]float64, []byte, *Session) {
		s := newTestSession(t, 100)
		var events bytes.Buffer
		s.Trace = trace.New(&events)
		s.WhatIf(0, iset.FromOrdinals(0))
		s.Ctx = newPollCtx(1)
		costs := make([]float64, len(pairs))
		if batched {
			var b Batch
			for _, p := range pairs {
				b.Add(p.qi, p.cfg)
			}
			s.ReserveBatch(&b)
			s.EvaluateReservedBatch(&b, 1)
			s.CommitReservedBatch(&b)
			for i := range costs {
				costs[i] = b.Cost(i)
			}
		} else {
			for i, p := range pairs {
				costs[i], _ = s.WhatIf(p.qi, p.cfg)
			}
		}
		if err := s.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return costs, events.Bytes(), s
	}
	seqCosts, seqEvents, seq := run(false)
	batCosts, batEvents, bat := run(true)
	for i := range seqCosts {
		if seqCosts[i] != batCosts[i] {
			t.Fatalf("pair %d: batched cost %v != sequential %v", i, batCosts[i], seqCosts[i])
		}
	}
	if !bytes.Equal(seqEvents, batEvents) {
		t.Fatalf("batched stream differs from sequential:\n%s\nvs\n%s", batEvents, seqEvents)
	}
	if seq.Used() != 2 || bat.Used() != 2 || !bat.Cancelled() || bat.CacheHits() != seq.CacheHits() {
		t.Fatalf("seq used %d, batch used %d cancelled %v", seq.Used(), bat.Used(), bat.Cancelled())
	}
	if n := bytes.Count(batEvents, []byte(`"cancel"`)); n != 1 {
		t.Fatalf("%d cancel events, want 1", n)
	}
}

// A cancel observed by a floor probe inside CheckStop ends the check before
// the gap is computed: the session is cancelled, not stopped, and its
// refund is the cancel's.
func TestCancelDuringFloorProbes(t *testing.T) {
	s := newTestSession(t, 1000)
	s.StopEpsilon = 1.0 // would stop on the first gap computed
	s.Ctx = newPollCtx(3)
	rec := trace.New(nil)
	s.Trace = rec
	if !s.CheckStop(iset.Set{}) {
		t.Fatal("CheckStop must report the cancelled session as terminated")
	}
	if !s.Cancelled() || s.Stopped() || s.StopGap() != 0 || s.stopper != nil {
		t.Fatalf("cancelled=%v stopped=%v gap=%v: the gap must not be computed",
			s.Cancelled(), s.Stopped(), s.StopGap())
	}
	if s.Used() != 3 || s.Used()+s.RefundedBudget() != s.Budget {
		t.Fatalf("used %d + refunded %d, want 3 + %d", s.Used(), s.RefundedBudget(), s.Budget-3)
	}
	sum := rec.Summary("test", s.Budget)
	if sum.Cancellations != 1 || sum.EarlyStops != 0 || sum.RefundedBudget != s.RefundedBudget() {
		t.Fatalf("summary %+v", sum)
	}
}

// A cancel arriving after an early stop changes nothing: the stopped session
// never polls, so the stop's refund is the only one recorded.
func TestCancelAfterStopChangesNothing(t *testing.T) {
	s := newTestSession(t, 500)
	s.StopEpsilon = 1.0
	rec := trace.New(nil)
	s.Trace = rec
	if !s.CheckStop(iset.Set{}) {
		t.Fatal("expected immediate stop")
	}
	ctx := newPollCtx(0)
	s.Ctx = ctx
	s.WhatIf(0, iset.FromOrdinals(7))
	if ctx.polls != 0 || s.Cancelled() {
		t.Fatalf("stopped session polled %d times, cancelled=%v", ctx.polls, s.Cancelled())
	}
	sum := rec.Summary("test", s.Budget)
	if sum.EarlyStops != 1 || sum.Cancellations != 0 || sum.RefundedBudget != s.RefundedBudget() {
		t.Fatalf("summary %+v", sum)
	}
}

// Chargers on several goroutines racing a real cancellation: exactly one
// charge attempt observes it, so one cancel event is recorded, and the
// refund covers everything not charged. The budget exceeds every pair the
// goroutines can ask for, so only the cancel can end the spending.
func TestCancelConcurrentChargers(t *testing.T) {
	const budget = 100_000
	s := newTestSession(t, budget)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Ctx = ctx
	rec := trace.New(nil)
	s.Trace = rec
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if g == 0 && i == 20 {
					cancel()
				}
				s.WhatIf(i%len(s.W.Queries), iset.FromOrdinals(i%13, (i+g)%17))
			}
		}(g)
	}
	wg.Wait()
	if !s.Cancelled() || s.Used()+s.RefundedBudget() != budget {
		t.Fatalf("cancelled=%v used %d + refunded %d != %d", s.Cancelled(), s.Used(), s.RefundedBudget(), budget)
	}
	sum := rec.Summary("test", budget)
	if sum.Cancellations != 1 || sum.TotalSpend != s.Used() || sum.RefundedBudget != s.RefundedBudget() {
		t.Fatalf("summary %+v, used %d", sum, s.Used())
	}
}
