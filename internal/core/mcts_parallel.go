package core

// Intra-session parallel MCTS: a deterministic episode pipeline with virtual
// loss.
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
// Workers = 1 never enters this file: the sequential loop in Enumerate runs
// unchanged (virtual-loss counters stay zero, making the selection formulas
// arithmetically identical), so all paper figures are bit-identical to the
// pre-parallel tuner.

import (
	randv2 "math/rand/v2"

	"indextune/internal/iset"
	"indextune/internal/search"
)

// workerCount resolves the effective intra-session parallelism: an explicit
// Options.Workers wins, otherwise the session's Workers hint applies; values
// below 2 select the sequential path.
func (o Options) workerCount(s *search.Session) int {
	w := o.Workers
	if w <= 0 {
		w = s.Workers
	}
	if w <= 1 {
		return 1
	}
	return w
}

// pcgStream adapts a math/rand/v2 PCG stream to rngSource. PCG supports
// cheap independent streams per (seed, stream) pair, which is exactly the
// per-worker determinism the pipeline needs.
type pcgStream struct{ r *randv2.Rand }

func (p pcgStream) Float64() float64 { return p.r.Float64() }
func (p pcgStream) Intn(n int) int   { return p.r.IntN(n) }

// episodeSlot holds one in-flight episode: its private RNG stream, its
// selection path, and the channels of its evaluation worker. Everything but
// the two channels belongs to the coordinator goroutine; the evaluation
// worker communicates only through jobs and done.
type episodeSlot struct {
	rng  rngSource // owned by: coordinator
	path []*node   // owned by: coordinator
	acts []int     // owned by: coordinator
	d    []float64 // owned by: coordinator

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
	// the channel, never the slot's own fields. SkipFallback: an over-budget
	// episode keeps its derived total, so no fallback cost or event is
	// wanted.
	b *search.Batch // owned by: coordinator

	jobs chan *search.Batch
	done chan struct{}
}

// runParallel drives the episode pipeline until the budget is exhausted or
// the stall guard trips, then drains the in-flight tail.
func (t *tuner) runParallel(workers int) {
	slots := make([]*episodeSlot, workers)
	for i := range slots {
		sl := &episodeSlot{
			rng:  pcgStream{randv2.New(randv2.NewPCG(uint64(t.s.Rng.Int63()), uint64(i)))},
			qi:   -1,
			b:    &search.Batch{SkipFallback: true},
			jobs: make(chan *search.Batch, 1),
			done: make(chan struct{}, 1),
		}
		slots[i] = sl
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

	ep := 0
	for !t.s.Exhausted() && t.stalled < maxStalled {
		sl := slots[ep%workers]
		if sl.inflight {
			t.commitEpisode(sl)
			// The stop check runs on the coordinator immediately after each
			// commit — the same point in the episode order as the sequential
			// path — so the decision is deterministic in (seed, workers).
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
// query sampling, and budget reservation, then dispatches the evaluation to
// the slot's worker and pins the selection path with a virtual loss.
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
	}
	d := sl.d[:m]
	total := 0.0
	for qi := range s.W.Queries {
		d[qi] = s.Derived.Query(qi, cfg) * s.W.Queries[qi].EffectiveWeight()
		total += d[qi]
	}
	sl.total = total
	sl.qi = t.pickQuery(cfg, d, total)
	sl.awaiting = false
	charged := false
	if sl.qi >= 0 {
		sl.dQi = d[sl.qi]
		// The reserve decision (seen / bound / charge) runs on the
		// coordinator in episode order, so it is deterministic in (seed,
		// Workers); evaluation goes to the slot's worker, and the pair's
		// trace events land at the commit point.
		sl.b.Reset()
		sl.b.Add(sl.qi, cfg)
		s.ReserveBatch(sl.b)
		switch sl.b.Outcome(0) {
		case search.BatchCharged:
			charged = true
			fallthrough
		case search.BatchCached:
			sl.jobs <- sl.b
			sl.awaiting = true
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
		// recorded and their trace events emitted here; an exhausted episode
		// keeps its derived total (SkipFallback).
		t.s.CommitReservedBatch(sl.b)
		if sl.b.Outcome(0) != search.BatchExhausted {
			total += -sl.dQi + sl.b.Cost(0)*t.s.W.Queries[sl.qi].EffectiveWeight()
		}
	}
	for i, n := range sl.path {
		n.vvisits--
		if i < len(sl.acts) {
			n.stats[sl.acts[i]].vloss--
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
