package core

// The MCTS episode loop: a deterministic episode pipeline with virtual loss.
// Every worker count runs it; Workers = 1 is a one-slot pipeline.
//
// True asynchronous shared-tree MCTS makes the search trajectory depend on
// goroutine scheduling, which would break the repository's fixed-seed
// reproducibility contract. The pipeline below keeps the trajectory a pure
// function of (seed, Workers) while still overlapping the expensive part of
// every episode — the what-if optimizer call — across N workers:
//
//   - A single coordinator goroutine (the caller of Enumerate) owns the tree
//     and the session bookkeeping. It performs selection, rollout, query
//     sampling, and budget reservation strictly in episode order.
//   - After reserving episode j's what-if call, the coordinator hands the
//     evaluation to worker slot j mod N and immediately starts selecting
//     episode j+1. Up to N episodes are in flight at once.
//   - Episodes commit (cost recorded, reward backed up) in episode order with
//     a fixed lag: before selecting episode j, episode j−N commits. Every
//     tree and session mutation therefore happens at a deterministic point in
//     the episode sequence, independent of how long any evaluation took.
//   - While an episode is in flight, its selection path carries a virtual
//     loss (node.vvisits / actionStat.vloss): the pending episode counts as a
//     zero-reward visit, so subsequent selections are steered toward other
//     actions instead of piling onto the same leaf N times.
//   - Each slot draws from its own math/rand/v2 PCG stream, seeded from the
//     session RNG at startup, so the random trajectory does not depend on
//     which goroutine evaluates what.
//
// Workers = 1 runs one slot that draws from the session RNG itself and
// evaluates its reserved pair inline, on the coordinator, before the next
// episode begins: no goroutine, no channels. Its episode j commits before
// episode j+1 selects, so the virtual-loss counters are zero at every
// selection and the selection formulas are exactly Equations 5 and 6. The
// loop guard runs before every reserve, on the only goroutine that charges,
// so an episode's pair is over budget only when its own reserve observed a
// cancellation, after which the guard ends the loop.

import (
	randv2 "math/rand/v2"

	"indextune/internal/iset"
	"indextune/internal/search"
)

// workerCount resolves the effective intra-session parallelism from the
// session's Workers setting; values below 2 select the one-slot pipeline.
// Workers = 1 — what all paper figures use — draws from the session RNG and
// evaluates each episode inline before the next begins. Results with
// Workers = N > 1 are deterministic in (seed, N) but differ from the
// one-slot trajectory.
func workerCount(s *search.Session) int {
	if s.Workers <= 1 {
		return 1
	}
	return s.Workers
}

// pcgStream adapts a math/rand/v2 PCG stream to rngSource. PCG supports
// cheap independent streams per (seed, stream) pair, which is exactly the
// per-worker determinism the pipeline needs.
type pcgStream struct{ r *randv2.Rand }

func (p pcgStream) Float64() float64 { return p.r.Float64() }
func (p pcgStream) Intn(n int) int   { return p.r.IntN(n) }

// episodeSlot holds one in-flight episode: its RNG stream, its selection
// path, and — in a multi-slot pipeline — the channels of its evaluation
// worker. Everything but the two channels belongs to the coordinator
// goroutine; the evaluation worker communicates only through jobs and done.
type episodeSlot struct {
	rng  rngSource // owned by: coordinator
	path []*node   // owned by: coordinator
	acts []int     // owned by: coordinator
	d    []float64 // owned by: coordinator
	seen []bool    // owned by: coordinator — pickQuery's per-query Seen answers

	cfg      iset.Set // owned by: coordinator
	total    float64  // owned by: coordinator — derived workload cost of cfg, before the what-if refinement
	qi       int      // owned by: coordinator — query picked for the budgeted call, or -1
	dQi      float64  // owned by: coordinator — weighted derived cost of (qi, cfg), replaced on commit
	awaiting bool     // owned by: coordinator — an evaluation is pending on done
	inflight bool     // owned by: coordinator — the slot holds an uncommitted episode

	// b is the slot's persistent one-pair batch. The coordinator fills it in
	// beginEpisode and reads it in commitEpisode; in between, the pointer
	// rides the jobs channel to the worker, with the jobs/done round-trip
	// ordering the accesses — the worker only ever touches what arrived on
	// the channel, never the slot's own fields.
	b *search.Batch // owned by: coordinator

	// jobs and done connect the slot to its evaluation worker; both are nil
	// in the one-slot pipeline, which evaluates inline.
	jobs chan *search.Batch
	done chan struct{}
}

// run drives the episode pipeline until the budget is exhausted or the stall
// guard trips, then drains the in-flight tail.
func (t *tuner) run(workers int) {
	slots := make([]*episodeSlot, workers)
	for i := range slots {
		slots[i] = &episodeSlot{rng: t.s.Rng, qi: -1, b: new(search.Batch)}
	}
	if workers > 1 {
		for i, sl := range slots {
			sl.rng = pcgStream{randv2.New(randv2.NewPCG(uint64(t.s.Rng.Int63()), uint64(i)))}
			sl.jobs = make(chan *search.Batch, 1)
			sl.done = make(chan struct{}, 1)
			go func() {
				for b := range sl.jobs {
					t.s.EvaluateReservedBatch(b, 1)
					sl.done <- struct{}{}
				}
			}()
		}
		defer func() {
			for _, sl := range slots {
				close(sl.jobs)
			}
		}()
	}

	ep := 0
	for !t.s.Exhausted() && t.stalled < maxStalled {
		sl := slots[ep%workers]
		if sl.inflight {
			t.commitEpisode(sl)
			// The stop check runs on the coordinator immediately after each
			// commit, so the decision is deterministic in (seed, workers).
			if t.checkStop() {
				break
			}
		}
		t.beginEpisode(sl)
		ep++
	}
	for i := 0; i < workers; i++ {
		sl := slots[(ep+i)%workers]
		if sl.inflight {
			t.commitEpisode(sl)
		}
	}
}

// beginEpisode runs the coordinator half of one episode: selection, rollout,
// query sampling, and budget reservation, then evaluates the reserved pair —
// inline in the one-slot pipeline, on the slot's worker otherwise — and pins
// the selection path with a virtual loss.
//
// The query sampling and reservation are Algorithm 3's
// EvaluateCostWithBudget: one what-if call is spent on a single query
// sampled with probability proportional to its derived cost, and the rest of
// the workload is approximated with derived costs. Pairs this session has
// already asked for are reused for free.
func (t *tuner) beginEpisode(sl *episodeSlot) {
	t.rng = sl.rng
	sl.path = sl.path[:0]
	sl.acts = sl.acts[:0]
	cfg := t.sample(t.root, &sl.path, &sl.acts)
	for i, n := range sl.path {
		n.vvisits++
		if i < len(sl.acts) {
			n.stat(sl.acts[i], t.priors[sl.acts[i]]).vloss++
		}
	}
	sl.cfg = cfg

	s := t.s
	m := len(s.W.Queries)
	if cap(sl.d) < m {
		sl.d = make([]float64, m)
		sl.seen = make([]bool, m)
	}
	d := sl.d[:m]
	total := 0.0
	for qi := range s.W.Queries {
		d[qi] = s.Derived.Query(qi, cfg) * s.W.Queries[qi].EffectiveWeight()
		total += d[qi]
	}
	sl.total = total
	sl.qi = t.pickQuery(cfg, d, total, sl.seen[:m])
	sl.awaiting = false
	charged := false
	if sl.qi >= 0 {
		sl.dQi = d[sl.qi]
		// The reserve decision (seen / bound / charge) runs on the
		// coordinator in episode order, so it is deterministic in (seed,
		// Workers); the pair's trace events land at the commit point.
		sl.b.Reset()
		sl.b.Add(sl.qi, cfg)
		s.ReserveBatch(sl.b)
		switch sl.b.Outcome(0) {
		case search.BatchCharged:
			charged = true
			fallthrough
		case search.BatchCached:
			if sl.jobs == nil {
				s.EvaluateReservedBatch(sl.b, 1)
			} else {
				sl.jobs <- sl.b
				sl.awaiting = true
			}
		}
	}
	if charged {
		t.stalled = 0
	} else {
		t.stalled++
	}
	sl.inflight = true
	t.inflightN++
}

// commitEpisode completes a slot's episode: it waits for the evaluation,
// records the charged call, lifts the virtual loss, and backs the reward up
// the selection path — all on the coordinator, in episode order.
func (t *tuner) commitEpisode(sl *episodeSlot) {
	total := sl.total
	if sl.qi >= 0 {
		if sl.awaiting {
			<-sl.done
		}
		// Commit on the coordinator in episode order: charged calls are
		// recorded and their trace events emitted here. The loop guard
		// precedes every reserve, so a pair is exhausted only when its
		// reserve observed a cancellation; the episode keeps its derived
		// total.
		t.s.CommitReservedBatch(sl.b)
		if sl.b.Outcome(0) != search.BatchExhausted {
			total += -sl.dQi + sl.b.Cost(0)*t.s.W.Queries[sl.qi].EffectiveWeight()
		}
	}
	for i, n := range sl.path {
		n.vvisits--
		if i < len(sl.acts) {
			n.stats[n.statIdx[sl.acts[i]]].vloss--
		}
	}
	eta := 0.0
	if t.baseW > 0 {
		eta = 1 - total/t.baseW
		if eta < 0 {
			eta = 0
		}
		if eta > 1 {
			eta = 1
		}
	}
	t.inflightN--
	t.backup(sl.path, sl.acts, sl.cfg, eta)
	sl.inflight = false
}
