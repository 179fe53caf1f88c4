package whatif

import (
	"sync"
	"testing"
	"time"

	"indextune/internal/iset"
)

// TestWhatIfBatchBitIdenticalToScalar pins the central batch property: on
// the cost digest's workloads and seeded configurations, WhatIfBatch returns
// floats whose bits hash to the committed PeekCost digest (TestCostDigest),
// and its counter effects equal those of the same requests
// issued one by one through WhatIf against a second optimizer.
func TestWhatIfBatchBitIdenticalToScalar(t *testing.T) {
	golden := readCostGolden(t, costGoldenPath)
	for _, w := range digestWorkloads(t) {
		cands := digestCandidates(w)
		ob := New(w.DB, cands) // serves batches
		os := New(w.DB, cands) // serves the one-by-one reference sequence
		for qi, q := range w.Queries {
			cfgs := digestConfigs(ob, q, qi)
			got := ob.WhatIfBatch(q, cfgs)
			name := w.Name + "/" + q.ID
			if d, want := costBitsDigest(got), costField(golden[name], "cost"); d != want {
				t.Fatalf("%s: batch cost digest %s, golden %s", name, d, want)
			}
			for k, cfg := range cfgs {
				if want := os.WhatIf(q, cfg); got[k] != want {
					t.Fatalf("%s cfg %v: batch %v != WhatIf %v", name, cfg, got[k], want)
				}
			}
		}
		if ob.Calls() != os.Calls() || ob.CacheHits() != os.CacheHits() {
			t.Fatalf("%s: batch calls=%d hits=%d, scalar calls=%d hits=%d",
				w.Name, ob.Calls(), ob.CacheHits(), os.Calls(), os.CacheHits())
		}
	}
}

// TestWhatIfBatchMatchesPeekOnFixture spot-checks the fixture workload,
// including the empty configuration and the empty batch.
func TestWhatIfBatchMatchesPeekOnFixture(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	if got := o.WhatIfBatch(w.Queries[0], nil); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
	cfgs := []iset.Set{{}, iset.FromOrdinals(0), iset.FromOrdinals(0, 4), iset.FromOrdinals(1, 2, 3)}
	ref := New(w.DB, cands)
	for _, q := range w.Queries {
		got := o.WhatIfBatch(q, cfgs)
		for k, cfg := range cfgs {
			if want := ref.PeekCost(q, cfg); got[k] != want {
				t.Fatalf("%s cfg %v: batch %v != peek %v", q.ID, cfg, got[k], want)
			}
		}
	}
}

// TestWhatIfSingleflightComputeOnce is the race-stress test for the miss
// dedup: many goroutines request the same missing pair at once and exactly
// one cost-model computation may happen. The simulated latency widens the
// race window so pre-fix code (every goroutine computing, racing to insert)
// reliably fails the Calls assertion: each computation publishes, and each
// publish counts one call.
func TestWhatIfSingleflightComputeOnce(t *testing.T) {
	w, cands := fixture()
	q := w.Queries[0]
	for round := 0; round < 8; round++ {
		o := New(w.DB, cands)
		o.SimulatedLatency = 200 * time.Microsecond
		cfg := iset.FromOrdinals(round % len(cands))
		const workers = 16
		costs := make([]float64, workers)
		var wg sync.WaitGroup
		var gate sync.WaitGroup
		gate.Add(1)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				gate.Wait()
				costs[g] = o.WhatIf(q, cfg)
			}(g)
		}
		gate.Done()
		wg.Wait()
		for g := 1; g < workers; g++ {
			if costs[g] != costs[0] {
				t.Fatalf("goroutine %d saw %v, goroutine 0 saw %v", g, costs[g], costs[0])
			}
		}
		if o.Calls() != 1 || o.CacheHits() != workers-1 {
			t.Fatalf("round %d: calls=%d hits=%d for %d requests", round, o.Calls(), o.CacheHits(), workers)
		}
	}
}

// TestWhatIfBatchComputeOnceUnderRace overlaps concurrent batches sharing
// pairs: total computations must equal the number of distinct projected
// pairs, and total requests must balance calls + cacheHits.
func TestWhatIfBatchComputeOnceUnderRace(t *testing.T) {
	w, cands := fixture()
	q := w.Queries[0]
	o := New(w.DB, cands)
	o.SimulatedLatency = 50 * time.Microsecond
	cfgs := make([]iset.Set, 12)
	for i := range cfgs {
		cfgs[i] = iset.FromOrdinals(i % len(cands))
	}
	distinct := make(map[Pair]bool)
	for _, cfg := range cfgs {
		distinct[o.PairOf(q, cfg)] = true
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.WhatIfBatch(q, cfgs)
		}()
	}
	wg.Wait()
	if n := o.Calls(); n != int64(len(distinct)) {
		t.Fatalf("%d computations for %d distinct pairs", n, len(distinct))
	}
	total := int64(workers * len(cfgs))
	if o.Calls()+o.CacheHits() != total {
		t.Fatalf("calls=%d + hits=%d != %d requests", o.Calls(), o.CacheHits(), total)
	}
	if o.Calls() != int64(len(distinct)) {
		t.Fatalf("calls=%d, want %d (one per distinct pair)", o.Calls(), len(distinct))
	}
}

// TestBaseCostConcurrent hammers BaseCost across queries and goroutines:
// the per-query once means all callers agree and no call is ever counted.
func TestBaseCostConcurrent(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	want := make([]float64, len(w.Queries))
	for qi, q := range w.Queries {
		want[qi] = New(w.DB, cands).BaseCost(q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for qi, q := range w.Queries {
					if c := o.BaseCost(q); c != want[qi] {
						t.Errorf("BaseCost(%s) = %v, want %v", q.ID, c, want[qi])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if o.Calls() != 0 {
		t.Fatalf("BaseCost counted %d calls", o.Calls())
	}
}
