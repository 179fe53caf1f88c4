// Package whatif implements the synthetic what-if query optimizer that
// substitutes for Microsoft SQL Server's what-if API in this reproduction.
//
// Given a query and a hypothetical index configuration, the optimizer picks
// the cheapest access path per table reference (heap scan, index seek with or
// without row lookups, covering index-only scan) and the cheapest join
// strategy per join (hash join vs index-nested-loop using an inner-side join
// index), and returns the total estimated cost in abstract optimizer units.
//
// Two properties of the real optimizer that the paper's algorithms rely on
// are preserved by construction:
//
//   - Monotonicity (Assumption 1): every index only adds plan alternatives,
//     and the cost is a sum of per-operator minima over those alternatives,
//     so cost(q, C2) <= cost(q, C1) whenever C1 ⊆ C2.
//   - Index interaction: a selective filter index on one join side shrinks
//     the outer row count, which makes a join index on the other side far
//     more valuable — benefits are not additive across indexes.
//
// Every what-if call is counted and charged virtual time, enabling the
// budget accounting and tuning-time reporting of the paper (Figure 2).
package whatif

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// Cost model constants, in abstract optimizer units where reading one page
// costs 1 unit.
const (
	cpuPerRow     = 0.0005 // CPU cost of producing one row
	seekDescend   = 4.0    // B-tree root-to-leaf descend
	inlDescend    = 0.15   // amortized descend cost per INL probe (hot internal pages)
	hashPerRow    = 0.0006 // hash join build+probe CPU per input row
	sortPerRowLog = 0.002  // sort CPU per row per log2(rows)
)

// cacheShards is the number of independently locked what-if cache shards.
// Power of two so the shard index is a cheap mask of the key hash.
const cacheShards = 64

// cacheEntryBytes is the approximate resident size charged per cache entry:
// the slot (Pair + cost + clock bit, padded) plus the map slot (Pair + int32
// index amortized over bucket occupancy). A constant estimate keeps the
// accounting allocation-free and deterministic; capacity enforcement needs
// proportionality, not byte-exactness.
const cacheEntryBytes = 96

// cacheEntry is one published cost in a shard's slot arena. ref is the CLOCK
// reference bit: set on cache hits (under the shard read lock, hence atomic)
// and cleared by the eviction sweep's first pass, so a bounded shard evicts
// an entry only after a full hand revolution without a hit — second-chance
// (CLOCK) replacement. live distinguishes occupied slots from free-listed
// ones so the hand can skip holes.
type cacheEntry struct {
	pair Pair
	cost float64
	ref  atomic.Uint32 // CLOCK bit: Store(1) under RLock on hit, swept under Lock
	live bool          // slot occupied; written only under the owning shard's mu
}

// cacheShard is one mutex-protected slice of the what-if cost cache. Misses
// are deduplicated through the inflight table: the first goroutine to claim a
// missing pair becomes its leader and computes the cost model once; later
// claimants of the same pair block on the leader's done channel and read the
// published value, so concurrent duplicate requests never recompute.
//
// Entries live in a slot arena (entries + free list) addressed through the
// map rather than directly in map values, so the bounded mode's CLOCK hand
// can sweep them in index order and slot reuse keeps the bounded miss path
// free of per-entry allocations at steady state. In-flight computations are
// structurally un-evictable: they live in the separate inflight table and
// only enter the arena at publish time.
type cacheShard struct {
	mu       sync.RWMutex
	m        map[Pair]int32         // pair → slot index in entries; guarded by: mu
	entries  []cacheEntry           // slot arena; guarded by: mu (ref bits via atomics)
	free     []int32                // reusable dead slots; guarded by: mu
	hand     int                    // CLOCK hand: next slot the sweep examines; guarded by: mu
	bytes    int64                  // approximate resident bytes of live entries; guarded by: mu
	capBytes int64                  // eviction threshold, 0 = unbounded; guarded by: mu
	inflight map[Pair]*inflightCall // guarded by: mu
}

// insert places a published value into the arena, reusing a free slot when
// one exists. The new entry's clock bit starts set — a fresh entry survives
// at least one full hand revolution, like a hit entry.
//
// locked: mu
func (sh *cacheShard) insert(p Pair, c float64) {
	var idx int32
	if n := len(sh.free); n > 0 {
		idx = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		sh.entries = append(sh.entries, cacheEntry{})
		idx = int32(len(sh.entries) - 1)
	}
	e := &sh.entries[idx]
	e.pair = p
	e.cost = c
	e.live = true
	e.ref.Store(1)
	sh.m[p] = idx
	sh.bytes += cacheEntryBytes
}

// evict runs the CLOCK sweep until resident bytes fit under capBytes (no-op
// when unbounded): live entries with a set reference bit get the bit cleared
// and a second chance; entries found clear are evicted. Eviction is strict —
// under a pathologically small capacity even the just-inserted entry can go,
// which only costs a recomputation (the PR-1 warm≡cold invariant: cache
// contents never change results). Returns the number of entries evicted.
//
// locked: mu
func (sh *cacheShard) evict() int64 {
	var n int64
	for sh.capBytes > 0 && sh.bytes > sh.capBytes && len(sh.m) > 0 {
		if sh.hand >= len(sh.entries) {
			sh.hand = 0
		}
		e := &sh.entries[sh.hand]
		sh.hand++
		if !e.live {
			continue
		}
		if e.ref.Load() != 0 {
			e.ref.Store(0)
			continue
		}
		delete(sh.m, e.pair)
		e.live = false
		sh.free = append(sh.free, int32(sh.hand-1))
		sh.bytes -= cacheEntryBytes
		n++
	}
	return n
}

// inflightCall is one in-progress miss computation. The done channel is
// created lazily — under the shard mutex, by the first follower that needs
// to wait — so the common uncontended miss never allocates it. c is written
// by the leader under the shard mutex before done is closed, so waiters that
// return from <-done read it without further synchronization.
type inflightCall struct {
	done chan struct{} // created under the shard mutex; nil until a follower waits
	c    float64
}

// claimWith resolves a pair against the shard under one lock hold: a cached
// value (cached=true), an existing in-flight computation to wait on (cl,
// leader false, cl.done non-nil for this caller), or a fresh in-flight
// registration in the caller-provided slot (cl == fresh, leader true) that
// the caller now owns and must complete with publish. Batch leaders pass
// pooled slots to avoid a per-miss allocation. fresh is consumed only on the
// leader path and must stay reachable until the matching publish; the caller
// may recycle it afterwards only if publish reported no waiters (a waiter
// may still be reading fresh.c after release).
func (sh *cacheShard) claimWith(p Pair, fresh *inflightCall) (c float64, cl *inflightCall, leader, cached bool) {
	sh.mu.Lock()
	if idx, ok := sh.m[p]; ok {
		c := sh.entries[idx].cost
		sh.entries[idx].ref.Store(1)
		sh.mu.Unlock()
		return c, nil, false, true
	}
	if cl, ok := sh.inflight[p]; ok {
		if cl.done == nil {
			cl.done = make(chan struct{})
		}
		sh.mu.Unlock()
		return 0, cl, false, false
	}
	*fresh = inflightCall{}
	sh.inflight[p] = fresh
	sh.mu.Unlock()
	return 0, fresh, true, false
}

// publish completes a claimed miss: the value enters the cache, the inflight
// entry is retired, waiters (if any arrived) are released, and the counted
// call is charged. A follower registering after publish's critical section
// finds the pair in the cache instead of the retired inflight entry. The
// return reports whether any waiter was attached — callers owning cl's
// storage must not recycle it when true.
func (o *Optimizer) publish(sh *cacheShard, p Pair, cl *inflightCall, c float64) (waited bool) {
	sh.mu.Lock()
	sh.insert(p, c)
	evicted := sh.evict()
	cl.c = c
	done := cl.done
	delete(sh.inflight, p)
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
	if evicted != 0 {
		o.evictions.Add(evicted)
	}
	o.calls.Add(1)
	return done != nil
}

// Pair is the compact cache identity of a (query, configuration) evaluation:
// an interned query id plus a 64-bit fingerprint of the configuration. It is
// comparable and allocation-free to build, replacing the string
// "queryID|cfgKey" keys on the hot path. The optimizer's own cache always
// uses the *projected* fingerprint (configuration ∩ per-query relevance), so
// configurations differing only in indexes irrelevant to the query collapse
// to one entry; sessions choose between projected and unprojected pairs via
// PairOf/UnprojectedPairOf.
//
// Fingerprints are 64-bit hashes, not canonical encodings: two distinct
// configurations colliding on the same fingerprint would alias a cache entry
// (and a session's seen pair). The word hash (mixWord) avalanches every
// word, so no structured family of configurations collides by construction;
// only for a hash that behaved uniformly would the birthday bound put the
// collision probability at ~n²/2⁶⁵ for n distinct configurations per query.
type Pair struct {
	QID uint32
	FP  uint64
}

// queryInfo is the interned per-query state: the stable query id used in
// cache keys and the relevance projection — which candidate indexes can
// possibly affect this query's cost.
type queryInfo struct {
	qid uint32
	// rel is the relevance bitmap over candidate ordinals, stored as raw
	// words of fixed width (o.relWords) so configuration fingerprints can
	// mask against it without allocating.
	rel []uint64
	// relByTable lists, per table referenced by the query, the relevant
	// candidate ordinals in ascending order — the only indexes the cost walk
	// needs to visit for that table's refs.
	relByTable map[string][]int

	// base memoizes cost(q, ∅) under baseOnce, replacing the global
	// string-keyed base-cost cache so workload-wide warmup never serializes
	// on one lock.
	baseOnce sync.Once
	base     float64

	// space memoizes the query's config-independent plan space, against which
	// every cost is scored (evalSpace). An atomic pointer (not a sync.Once) because the bounded mode
	// releases cold spaces: nil means "not built or released", and a released
	// space is rebuilt deterministically on next use — the plan space is a
	// pure function of (schema, candidates, query), so release can only cost
	// recomputation, never change a cost. spaceMu serializes build/release so
	// the byte accounting never double-counts; spaceRef is the CLOCK bit of
	// the release sweep, set on every batch that uses the space.
	spaceMu  sync.Mutex
	space    atomic.Pointer[planSpace]
	spaceRef atomic.Uint32
}

// Optimizer is the synthetic what-if optimizer. It is bound to a database
// and a fixed universe of candidate indexes identified by ordinal, so that
// configurations can be passed as compact ordinal sets.
//
// One Optimizer may be shared by any number of concurrent tuning sessions:
// the cost cache is sharded under per-shard read/write mutexes and the
// call/hit counters are atomic, so repeated (query, configuration)
// evaluations across sessions are answered from cache without recomputing
// the cost model. Per-run budget accounting does NOT live here — it is the
// responsibility of search.Session, which tracks the pairs it has asked for
// and charges its own budget and virtual clock (the paper's per-run budget
// B stays faithful even when the cache is warm from other runs).
type Optimizer struct {
	DB         *schema.Database
	Candidates []schema.Index

	// PerCallTime is the simulated latency of one what-if optimizer call.
	PerCallTime time.Duration
	// SimulatedLatency, when positive, makes every cache-missing what-if
	// evaluation sleep for that wall-clock duration before computing, acting
	// as a stand-in for the round-trip to a real optimizer. It exists for the
	// perf harness (latency-hiding benchmarks for the parallel MCTS
	// pipeline); figure runs leave it zero, so results and virtual-time
	// accounting never depend on it. Must be set before the optimizer is
	// shared across goroutines.
	SimulatedLatency time.Duration

	candsByTable map[string][]int
	// relWords is the fixed word width of relevance bitmaps: enough words to
	// cover every candidate ordinal.
	relWords int
	// infos interns per-query state keyed by *workload.Query. Pointer keys
	// box without allocating, keeping the hot-path lookup allocation-free;
	// sessions address queries through their workload's stable pointers, and
	// the PR-1 invariant (cache warmth never changes results) makes
	// pointer-identity interning result-neutral.
	infos   sync.Map
	nextQID atomic.Uint32

	shards    [cacheShards]cacheShard
	calls     atomic.Int64
	cacheHits atomic.Int64
	// computes counts cost-model executions performed on behalf of WhatIf /
	// WhatIfBatch misses — a test hook: with singleflight dedup it must never
	// exceed the number of distinct pairs, even under racing callers.
	computes atomic.Int64
	// evictions counts cache entries removed by the CLOCK sweep (0 forever
	// in the default unbounded mode).
	evictions atomic.Int64

	// capBytes is the total cache capacity set by SetCacheBytes (0 =
	// unbounded); kept for Stats — enforcement uses the per-shard split.
	capBytes int64
	// spaceCap bounds the summed size of interned plan spaces (set by
	// SetCacheBytes to a quarter of the cache capacity); spaceBytes and
	// spaceCount track the resident total, spaceEvicts the release sweep's
	// victims, and sweepMu admits one release sweep at a time.
	spaceCap    int64
	spaceBytes  atomic.Int64
	spaceCount  atomic.Int64
	spaceEvicts atomic.Int64
	sweepMu     sync.Mutex
}

// CacheStats is a point-in-time view of an optimizer's cache resources,
// aggregated over all shards. Hits and Misses are the lifetime counters
// (Misses == counted calls: every counted call computed the cost model);
// HitRate derives the global hit fraction from them.
type CacheStats struct {
	Entries        int64 `json:"entries"`
	ResidentBytes  int64 `json:"resident_bytes"`
	CapacityBytes  int64 `json:"capacity_bytes,omitempty"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions,omitempty"`
	PlanSpaces     int64 `json:"plan_spaces"`
	PlanSpaceBytes int64 `json:"plan_space_bytes"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any request.
func (st CacheStats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// SetCacheBytes bounds the optimizer's resident cache memory: the what-if
// cost cache gets n bytes split evenly across shards and evicts with CLOCK
// (second-chance) replacement once a shard exceeds its slice, and interned
// plan spaces get an additional n/4 bytes with coarse-grained release of
// cold queries. n = 0 (the default) disables both — nothing is ever evicted
// and behaviour is bit-identical to the unbounded implementation. Any n > 0
// is honored strictly (a tiny n keeps almost nothing resident); eviction
// only ever causes recomputation, never different costs or different
// session-level accounting. Must be called before the optimizer is shared
// across goroutines, like SimulatedLatency.
func (o *Optimizer) SetCacheBytes(n int64) {
	if n < 0 {
		n = 0
	}
	o.capBytes = n
	per := n / cacheShards
	if n > 0 && per == 0 {
		per = 1
	}
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.Lock()
		sh.capBytes = per
		evicted := sh.evict()
		sh.mu.Unlock()
		if evicted != 0 {
			o.evictions.Add(evicted)
		}
	}
	o.spaceCap = n / 4
}

// Stats aggregates the cache counters and per-shard residency.
func (o *Optimizer) Stats() CacheStats {
	st := CacheStats{
		CapacityBytes:  o.capBytes,
		Hits:           o.cacheHits.Load(),
		Misses:         o.calls.Load(),
		Evictions:      o.evictions.Load(),
		PlanSpaces:     o.spaceCount.Load(),
		PlanSpaceBytes: o.spaceBytes.Load(),
	}
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.RLock()
		st.Entries += int64(len(sh.m))
		st.ResidentBytes += sh.bytes
		sh.mu.RUnlock()
	}
	return st
}

// Evictions returns the number of cache entries evicted so far.
func (o *Optimizer) Evictions() int64 { return o.evictions.Load() }

// New constructs an optimizer over db with the given candidate universe.
func New(db *schema.Database, candidates []schema.Index) *Optimizer {
	o := &Optimizer{
		DB:           db,
		Candidates:   candidates,
		PerCallTime:  time.Second,
		candsByTable: make(map[string][]int),
		relWords:     (len(candidates) + 63) / 64,
	}
	for i := range o.shards {
		o.shards[i].m = make(map[Pair]int32)
		o.shards[i].inflight = make(map[Pair]*inflightCall)
	}
	for i, ix := range candidates {
		o.candsByTable[ix.Table] = append(o.candsByTable[ix.Table], i)
	}
	return o
}

// info returns the interned per-query state, building it on first use.
func (o *Optimizer) info(q *workload.Query) *queryInfo {
	if v, ok := o.infos.Load(q); ok {
		return v.(*queryInfo)
	}
	return o.internQuery(q)
}

// internQuery builds and publishes the queryInfo for q. Concurrent callers
// may both build; LoadOrStore keeps exactly one (a discarded qid leaves a
// harmless gap in the id space).
func (o *Optimizer) internQuery(q *workload.Query) *queryInfo {
	in := &queryInfo{
		rel:        make([]uint64, o.relWords),
		relByTable: make(map[string][]int, len(q.Refs)),
	}
	for ri := range q.Refs {
		r := &q.Refs[ri]
		for _, ord := range o.candsByTable[r.Table] {
			if relevantTo(r, &o.Candidates[ord]) {
				in.rel[ord/64] |= 1 << uint(ord%64)
			}
		}
	}
	// Per-table relevant ordinal lists are the union over the query's refs of
	// that table (self-joins): the cost walk re-checks per-ref eligibility,
	// so a union list only prunes, never admits, index choices.
	for ri := range q.Refs {
		r := &q.Refs[ri]
		if _, done := in.relByTable[r.Table]; done {
			continue
		}
		var list []int
		for _, ord := range o.candsByTable[r.Table] {
			if in.rel[ord/64]&(1<<uint(ord%64)) != 0 {
				list = append(list, ord)
			}
		}
		in.relByTable[r.Table] = list
	}
	in.qid = o.nextQID.Add(1) - 1
	if prev, loaded := o.infos.LoadOrStore(q, in); loaded {
		return prev.(*queryInfo)
	}
	return in
}

// relevantTo reports whether ix can possibly affect the access or join cost
// of ref r (same table assumed). The criterion mirrors every way the cost
// walk can select an index: a sargable leading key (indexAccessCost requires
// matched > 0, i.e. a filter predicate on Key[0]), a covering payload
// (matched == 0 scans and covered INL fetches), or a leading key on a join
// column (INL probes require Key[0] among the connecting join columns, which
// are always a subset of r.JoinCols). Sort columns are included as a safety
// margin: order only matters for indexes already admitted by the above, so
// this keeps the projection a superset of "can affect cost" even if the
// model later rewards order alone.
func relevantTo(r *workload.TableRef, ix *schema.Index) bool {
	if len(ix.Key) == 0 {
		return false
	}
	lead := ix.Key[0]
	if findPredicate(r, lead) != nil {
		return true
	}
	if ix.Covers(r.Need) {
		return true
	}
	if containsCol(r.JoinCols, lead) {
		return true
	}
	return containsCol(r.SortCols, lead)
}

// Calls returns the number of counted what-if calls so far.
func (o *Optimizer) Calls() int64 { return o.calls.Load() }

// CacheHits returns the number of what-if requests answered from cache.
func (o *Optimizer) CacheHits() int64 { return o.cacheHits.Load() }

// FNV-1a parameters: the offset seeds the configuration fingerprints, and
// the prime spreads query ids over the cache shards (shardFor) and drives the
// snapshot codec's byte hashes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// wordKey separates word positions in the fingerprint (the 64-bit golden
// ratio, so consecutive indexes map to dense, unrelated patterns).
const wordKey = 0x9e3779b97f4a7c15

// mixWord folds the nonzero bitset word w at index i into the fingerprint h
// through the splitmix64 finalizer, a bijection in which every input bit
// flips about half the output bits.
//
// The plain word-wise FNV-1a step (h ^= w; h *= p) collided structurally:
// multiplication only carries bits upward, so a flip of bit 63 commutes
// through every later step ((h ^ 2⁶³)·p == h·p ^ 2⁶³) — {63} and {127}
// always hashed equal, {63,127} equal to ∅ — and bit 62 survived about half
// the time. An xor-shift after the multiply is not enough either: it leaves
// sparse state differences a sparse next word can cancel ({63,93} and
// {61,125} still collided). With a full avalanche, two configurations can
// only collide if one differs from the other in a dense, essentially random
// bit pattern.
func mixWord(h uint64, i int, w uint64) uint64 {
	z := h ^ w ^ uint64(i)*wordKey
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fingerprint hashes cfg masked by the relevance words. Only nonzero masked
// words are folded in, keyed by their index, so the fingerprint is canonical
// for a given projected set regardless of the Set's backing length, and a
// sparse configuration costs one mix per occupied word. Allocation-free.
func fingerprint(cfg iset.Set, mask []uint64) uint64 {
	n := cfg.NumWords()
	if n > len(mask) {
		n = len(mask)
	}
	h := uint64(fnvOffset64)
	for i := 0; i < n; i++ {
		if w := cfg.Word(i) & mask[i]; w != 0 {
			h = mixWord(h, i, w)
		}
	}
	return h
}

// fingerprintFull hashes cfg without projection: distinct configurations get
// distinct sequences of nonzero words, and zero words — including any past
// the universe width — leave no trace, so physically different backing
// lengths of the same set hash identically.
func fingerprintFull(cfg iset.Set) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < cfg.NumWords(); i++ {
		if w := cfg.Word(i); w != 0 {
			h = mixWord(h, i, w)
		}
	}
	return h
}

// PairOf returns the projected cache identity of (q, cfg): the interned
// query id plus the fingerprint of cfg ∩ Relevance(q). Configurations that
// differ only in indexes irrelevant to q map to the same Pair — exactly the
// collapse the optimizer cache exploits, and provably cost-preserving (see
// Relevance).
func (o *Optimizer) PairOf(q *workload.Query, cfg iset.Set) Pair {
	in := o.info(q)
	return Pair{QID: in.qid, FP: fingerprint(cfg, in.rel)}
}

// UnprojectedPairOf returns the identity of (q, cfg) with no relevance
// projection: distinct configurations map to distinct fingerprints (modulo
// 64-bit collisions). Sessions use it for their seen-pair budget accounting
// when bound derivation is disabled, preserving the exact charging behaviour
// of the string-keyed implementation.
func (o *Optimizer) UnprojectedPairOf(q *workload.Query, cfg iset.Set) Pair {
	in := o.info(q)
	return Pair{QID: in.qid, FP: fingerprintFull(cfg)}
}

// Relevance returns the set of candidate ordinals that can possibly affect
// cost(q, ·) — the projection bitmap. For every configuration C,
// cost(q, C) == cost(q, C ∩ Relevance(q)): an excluded index can never be
// an access alternative (no sargable leading key, no covering payload) nor
// an INL probe (leading key not a join column), and index choices are the
// only way a configuration enters the cost model. The returned set is a
// copy.
func (o *Optimizer) Relevance(q *workload.Query) iset.Set {
	in := o.info(q)
	var s iset.Set
	for wi, w := range in.rel {
		for w != 0 {
			s.Add(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return s
}

// shardFor hashes a pair onto one of the cache shards.
func (o *Optimizer) shardFor(p Pair) *cacheShard {
	h := p.FP ^ (uint64(p.QID) * fnvPrime64)
	return &o.shards[h&(cacheShards-1)]
}

// BaseCost returns cost(q, ∅). Baseline costs are assumed known from
// workload analysis and are not counted against the what-if budget. The value
// is memoized per interned query under a sync.Once, so workload-wide base-
// cost warmup from concurrent sessions never serializes on a shared lock:
// distinct queries proceed independently, and duplicates for one query block
// only on that query's single computation.
func (o *Optimizer) BaseCost(q *workload.Query) float64 {
	in := o.info(q)
	in.baseOnce.Do(func() {
		// A space without alternatives: session set-up scores every query's
		// baseline, and many queries are never scored under an index.
		var none iset.Set
		in.base = o.score(o.buildSpace(q, in, &none), none)
	})
	return in.base
}

// WhatIf returns cost(q, cfg), counting one what-if call unless the same
// (query, projected configuration) pair was already evaluated, in which case
// the cached answer is reused for free (the what-if cache of [21]). The
// cache key is always the relevance-projected fingerprint: configurations
// differing only in indexes irrelevant to q share one entry, which is
// cost-preserving (see Relevance) and — per the PR-1 invariant that cache
// warmth never changes results — neutral to session-level budget accounting.
func (o *Optimizer) WhatIf(q *workload.Query, cfg iset.Set) float64 {
	in := o.info(q)
	p := Pair{QID: in.qid, FP: fingerprint(cfg, in.rel)}
	sh := o.shardFor(p)
	// Hit path: read the slot by value under the read lock. The CLOCK bit is
	// set through an atomic store (safe under RLock against concurrent
	// readers), and only when not already set — hot entries then stay
	// read-only at steady state instead of bouncing the cache line. Bounded
	// and unbounded shards share the path; the bit is simply never consulted
	// when capBytes is 0.
	sh.mu.RLock()
	idx, ok := sh.m[p]
	var c float64
	if ok {
		c = sh.entries[idx].cost
		if sh.entries[idx].ref.Load() == 0 {
			sh.entries[idx].ref.Store(1)
		}
	}
	sh.mu.RUnlock()
	if ok {
		o.cacheHits.Add(1)
		return c
	}
	// Miss: claim the pair. Exactly one goroutine (the leader) computes —
	// losers wait on the in-flight computation and count a cache hit, the
	// same accounting outcome the old racing-insert scheme converged to.
	c, cl, leader, cached := sh.claimWith(p, new(inflightCall))
	if cached {
		o.cacheHits.Add(1)
		return c
	}
	if !leader {
		<-cl.done
		o.cacheHits.Add(1)
		return cl.c
	}
	if o.SimulatedLatency > 0 {
		time.Sleep(o.SimulatedLatency)
	}
	c = o.score(o.space(q, in), cfg)
	o.computes.Add(1)
	o.publish(sh, p, cl, c)
	return c
}

// Known reports whether cost(q, cfg) is already in the what-if cache, under
// the same projected key WhatIf uses — so projection-induced hits are
// visible to callers deciding between a free lookup and a derived cost.
func (o *Optimizer) Known(q *workload.Query, cfg iset.Set) bool {
	p := o.PairOf(q, cfg)
	sh := o.shardFor(p)
	sh.mu.RLock()
	_, ok := sh.m[p]
	sh.mu.RUnlock()
	return ok
}

// PeekCost returns cost(q, cfg) without counting a call, charging time, or
// mutating the cache. It consults the cache first under the projected key —
// the cached value is bit-identical to a fresh computation, the model being
// pure — and computes only on a miss. It exists for oracle evaluation of
// final configurations (the paper measures the improvement of the returned
// configuration "in terms of the actual what-if cost") and for tests.
func (o *Optimizer) PeekCost(q *workload.Query, cfg iset.Set) float64 {
	in := o.info(q)
	p := Pair{QID: in.qid, FP: fingerprint(cfg, in.rel)}
	sh := o.shardFor(p)
	sh.mu.RLock()
	idx, ok := sh.m[p]
	var c float64
	if ok {
		// No CLOCK-bit touch: Peek is documented not to mutate the cache, so
		// it must not extend an entry's eviction lifetime either.
		c = sh.entries[idx].cost
	}
	sh.mu.RUnlock()
	if ok {
		return c
	}
	return o.score(o.peekSpace(q, in, cfg), cfg)
}

// ConfigSizeBytes returns the total estimated storage of the configuration.
func (o *Optimizer) ConfigSizeBytes(cfg iset.Set) int64 {
	var s int64
	for _, ord := range cfg.Ordinals() {
		s += o.Candidates[ord].SizeBytes(o.DB)
	}
	return s
}

// accessChoice is the configuration-free baseline access of a table ref.
type accessChoice struct {
	cost     float64 // heap scan, including the sort penalty
	rowsOut  float64
	sel      float64 // combined local filter selectivity
	sortCost float64 // explicit sort, paid by any path not ordered on SortCols
}

// pipelineOrder returns a deterministic left-deep join order: start from the
// most selective ref (smallest combined filter selectivity, then smallest
// filtered output), then repeatedly append the most selective connected
// unjoined ref (falling back to disconnected refs when nothing connects).
// Putting filtered refs first is what lets an inner-side join index replace
// a large table scan — the dominant index benefit on star schemas.
func (o *Optimizer) pipelineOrder(q *workload.Query, access []accessChoice) []int {
	n := len(q.Refs)
	order := make([]int, 0, n)
	joined := make([]bool, n)
	better := func(a, b accessChoice) bool {
		if a.sel != b.sel {
			return a.sel < b.sel
		}
		return a.rowsOut < b.rowsOut
	}
	pick := func(connectedOnly bool) int {
		best := -1
		for i := 0; i < n; i++ {
			if joined[i] {
				continue
			}
			if connectedOnly && len(joinColsTo(q, joined, i)) == 0 {
				continue
			}
			if best < 0 || better(access[i], access[best]) {
				best = i
			}
		}
		return best
	}
	// Seed with the globally smallest ref.
	first := pick(false)
	order = append(order, first)
	joined[first] = true
	for len(order) < n {
		next := pick(true)
		if next < 0 {
			next = pick(false)
		}
		order = append(order, next)
		joined[next] = true
	}
	return order
}

// joinColsTo returns the columns of ref i that join it to any already-joined
// ref, in query join-predicate order.
func joinColsTo(q *workload.Query, joined []bool, i int) []string {
	var cols []string
	for ji := range q.Joins {
		j := &q.Joins[ji]
		if j.RightRef == i && joined[j.LeftRef] {
			cols = append(cols, j.RightCol)
		} else if j.LeftRef == i && joined[j.RightRef] {
			cols = append(cols, j.LeftCol)
		}
	}
	return cols
}

func containsCol(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

// baseAccess returns the configuration-free access facts of ref r: the heap
// scan (or, for a table missing from the schema, a unit placeholder), its
// filtered output cardinality and combined selectivity, and the sort
// penalty every access path that does not deliver the ref's order pays.
func (o *Optimizer) baseAccess(r *workload.TableRef) accessChoice {
	t := o.DB.Table(r.Table)
	if t == nil {
		return accessChoice{cost: 1, rowsOut: 1}
	}
	sel := r.LocalSelectivity()
	rowsOut := float64(t.Rows) * sel
	if rowsOut < 1 {
		rowsOut = 1
	}
	sortCost := 0.0
	if len(r.SortCols) > 0 {
		sortCost = sortPerRowLog * rowsOut * log2(rowsOut)
	}
	return accessChoice{
		cost:     t.Pages() + cpuPerRow*float64(t.Rows) + sortCost,
		rowsOut:  rowsOut,
		sel:      sel,
		sortCost: sortCost,
	}
}

// indexAccessCost estimates the cost of accessing ref r through index ix.
// It returns ok=false when the index offers no plausible access path.
func (o *Optimizer) indexAccessCost(t *schema.Table, r *workload.TableRef, ix *schema.Index, rowsOut float64) (cost float64, ok, ordered bool) {
	// Walk the key prefix against the ref's predicates: equality columns
	// extend the sargable prefix; one range column terminates it.
	seekSel := 1.0
	matched := 0
	for _, k := range ix.Key {
		p := findPredicate(r, k)
		if p == nil {
			break
		}
		seekSel *= p.Selectivity
		matched++
		if p.Op == workload.OpRange {
			break
		}
	}
	covers := ix.Covers(r.Need)
	ordered = keyProvidesOrder(ix, r)
	ixPages := ix.Pages(o.DB)

	if matched == 0 {
		// No sargable prefix: only useful as a narrower covering scan.
		if !covers {
			return 0, false, false
		}
		return ixPages + cpuPerRow*float64(t.Rows), true, ordered
	}
	fetch := float64(t.Rows) * seekSel
	if fetch < 1 {
		fetch = 1
	}
	leaf := ixPages * seekSel
	if leaf < 1 {
		leaf = 1
	}
	cost = seekDescend + leaf + cpuPerRow*fetch
	if !covers {
		// Random lookups into the heap, capped at re-reading the table.
		lookups := fetch
		if lookups > t.Pages() {
			lookups = t.Pages()
		}
		cost += lookups
	}
	return cost, true, ordered
}

// findPredicate returns the filter predicate of r on column col, or nil.
func findPredicate(r *workload.TableRef, col string) *workload.Predicate {
	for i := range r.Filters {
		if r.Filters[i].Column == col {
			return &r.Filters[i]
		}
	}
	return nil
}

// keyProvidesOrder reports whether the index key begins with the ref's sort
// columns, allowing the optimizer to skip an explicit sort.
func keyProvidesOrder(ix *schema.Index, r *workload.TableRef) bool {
	if len(r.SortCols) == 0 || len(ix.Key) < len(r.SortCols) {
		return false
	}
	for i, c := range r.SortCols {
		if ix.Key[i] != c {
			return false
		}
	}
	return true
}

// joinOutputRows estimates the pipeline cardinality after joining in ref r.
func joinOutputRows(db *schema.Database, curRows float64, r *workload.TableRef, innerCol string, innerRows float64) float64 {
	ndv := 1.0
	if t := db.Table(r.Table); t != nil {
		if c := t.Column(innerCol); c != nil && c.NDV > 0 {
			ndv = float64(c.NDV)
		}
	}
	out := curRows * innerRows / ndv
	if out < 1 {
		out = 1
	}
	return out
}

func log2(x float64) float64 {
	if x <= 2 {
		return 1
	}
	return math.Log2(x)
}

// Explain renders a human-readable plan summary of cost(q, cfg), intended
// for examples and debugging. It performs no budget accounting.
func (o *Optimizer) Explain(q *workload.Query, cfg iset.Set) string {
	return o.Plan(q, cfg).String()
}
