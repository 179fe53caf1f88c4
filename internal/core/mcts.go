// Package core implements the paper's primary contribution: budget-aware
// index configuration search via Monte Carlo tree search over the MDP of
// Section 5 (states = configurations, actions = adding one candidate index,
// deterministic transitions, rewards = percentage improvement).
//
// The implementation follows Algorithm 3 with the Section 6 policy choices:
//
//   - Action selection: UCT (Equation 5, λ = √2) or the proposed ε-greedy
//     variant that samples actions with probability proportional to their
//     estimated action values (Equation 6), bootstrapped with singleton
//     priors computed under budget by Algorithm 4.
//   - Rollout: randomized look-ahead step size in {0..K−d}, or the myopic
//     fixed-step variant (Section 6.2).
//   - Extraction: Best Configuration Explored (BCE), Best Greedy (BG, reusing
//     Algorithm 1 with derived costs), or their hybrid (Appendix C.2).
package core

import (
	"math"
	"sort"
	"strconv"

	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/trace"
)

// Policy selects the action-selection policy of Section 6.1.
type Policy int

// Action-selection policies.
const (
	// PolicyUCT is the UCB1-based UCT policy (Equation 5).
	PolicyUCT Policy = iota
	// PolicyPrior is the paper's ε-greedy variant: actions sampled with
	// probability proportional to estimated action value (Equation 6), with
	// unvisited actions seeded by singleton-improvement priors.
	PolicyPrior
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyUCT:
		return "UCT"
	case PolicyPrior:
		return "Prior"
	case PolicyBoltzmann:
		return "Boltzmann"
	case PolicyUniform:
		return "Uniform"
	default:
		return "Policy?"
	}
}

// RolloutKind selects the rollout policy of Section 6.2.
type RolloutKind int

// Rollout policies.
const (
	// RolloutRandomStep draws the look-ahead step size uniformly from
	// {0..K−d} (the standard unbiased rollout).
	RolloutRandomStep RolloutKind = iota
	// RolloutFixedStep uses a fixed look-ahead step size (the myopic
	// variant; step 0 evaluates the leaf configuration itself).
	RolloutFixedStep
)

// Extraction selects how the best configuration is extracted (Section 6.3).
type Extraction int

// Extraction strategies.
const (
	// ExtractBG traverses with Algorithm 1 over derived costs (Best Greedy).
	ExtractBG Extraction = iota
	// ExtractBCE returns the best configuration explored during search.
	ExtractBCE
	// ExtractHybrid returns the better of BG and BCE by derived cost.
	ExtractHybrid
)

// String implements fmt.Stringer.
func (e Extraction) String() string {
	switch e {
	case ExtractBG:
		return "BG"
	case ExtractBCE:
		return "BCE"
	default:
		return "Hybrid"
	}
}

// Options configure the MCTS tuner. Note the zero value selects UCT with a
// randomized rollout and Best-Greedy extraction; use Default() for the
// paper's recommended setting (ε-greedy with priors, myopic step-0 rollout,
// Best-Greedy extraction).
type Options struct {
	Policy      Policy
	Rollout     RolloutKind
	FixedStep   int // look-ahead step for RolloutFixedStep
	Extraction  Extraction
	Temperature float64 // Boltzmann temperature τ; 0 means 0.1
	RAVE        bool    // blend rapid action value estimates (Section 8)
}

// MCTS is the budget-aware MCTS configuration enumerator.
type MCTS struct {
	Opts Options
}

// Name implements search.Algorithm.
func (m MCTS) Name() string {
	policy := m.Opts.Policy.String()
	suffix := " + Greedy"
	if m.Opts.Extraction == ExtractBCE {
		suffix = " Only"
	}
	rave := ""
	if m.Opts.RAVE {
		rave = " RAVE"
	}
	return "MCTS (" + policy + rave + suffix + ")"
}

// node is a search-tree node representing one configuration (state). Action
// statistics are sparse: only actions actually taken from the node carry an
// actionStat; all others fall back to the global singleton priors. This
// keeps node creation O(1) even with tens of thousands of candidates.
type node struct {
	cfg     iset.Set
	depth   int
	visits  int
	visited bool // whether an episode has passed through after creation
	// vvisits counts episodes currently in flight through this node (virtual
	// loss). Owned by the coordinator goroutine like every other tree field;
	// zero whenever a one-slot pipeline selects, and after every commit.
	vvisits int // owned by: coordinator
	// stats holds the actions' statistics by value in first-touch order,
	// parallel to statKeys: stats[i] belongs to action statKeys[i], so the
	// selection passes walk both slices without a lookup per action.
	// statIdx maps an action to its index in both. It and children are
	// made on first insert: most nodes are frontier leaves that never get
	// either.
	stats    []actionStat
	statKeys []int
	statIdx  map[int]int32
	children map[int]*node
}

// stat returns the node's stat for action a, creating it on first touch.
// The pointer is valid until the next stat is created.
func (n *node) stat(a int, prior float64) *actionStat {
	i, ok := n.statIdx[a]
	if !ok {
		if n.statIdx == nil {
			n.statIdx = make(map[int]int32)
		}
		i = int32(len(n.stats))
		n.statIdx[a] = i
		n.stats = append(n.stats, actionStat{prior: prior})
		n.statKeys = append(n.statKeys, a)
	}
	return &n.stats[i]
}

// taken reports whether action a has a stat at n.
func (n *node) taken(a int) bool {
	_, ok := n.statIdx[a]
	return ok
}

type actionStat struct {
	n   int
	sum float64
	// vloss counts in-flight selections of this action (virtual loss): each
	// pending episode is treated as one extra observation with reward 0,
	// deflating the estimate so concurrent selections diverge. Coordinator-
	// owned; zero whenever a one-slot pipeline selects, and after every
	// commit.
	vloss int // owned by: coordinator
	prior float64
}

// q returns the current action-value estimate Q̂(s,a). The prior counts as
// one pseudo-observation so that it bootstraps but does not dominate; each
// unit of virtual loss counts as a zero-reward pseudo-observation.
func (a *actionStat) q(usePrior bool) float64 {
	if usePrior {
		return (a.prior + a.sum) / float64(1+a.n+a.vloss)
	}
	if a.n+a.vloss == 0 {
		return 0
	}
	return a.sum / float64(a.n+a.vloss)
}

// rngSource is the sampling surface the tuner draws from. The session's
// *math/rand.Rand satisfies it directly (the one-slot pipeline); wider
// pipelines substitute per-slot math/rand/v2 PCG streams (mcts_parallel.go)
// so the random trajectory depends only on (seed, Workers).
type rngSource interface {
	Float64() float64
	Intn(n int) int
}

// tuner carries per-run state. All tree state is owned by a single
// coordinator goroutine; only reserved what-if evaluations of a multi-slot
// pipeline leave that goroutine.
type tuner struct {
	opts           Options
	name           string
	s              *search.Session
	rng            rngSource
	priors         []float64 // singleton improvement priors, per candidate ordinal
	priorPrefix    []float64 // cumulative sums of priors, for proportional sampling
	priorTotal     float64
	expPriorPrefix []float64 // cumulative sums of exp(prior/τ), for Boltzmann
	expPriorTotal  float64
	rave           *raveStats // owned by: coordinator
	baseW          float64
	root           *node             // owned by: coordinator
	bestCfg        iset.Set          // owned by: coordinator
	bestEta        float64           // owned by: coordinator
	stalled        int               // owned by: coordinator
	sinceStopCheck int               // owned by: coordinator — committed episodes since the last early-stop check
	ep             int               // owned by: coordinator — episodes committed so far (trace labeling)
	inflightN      int               // owned by: coordinator — episodes currently in flight
	bg             *greedy.Extractor // owned by: coordinator — memoized Best-Greedy extraction
	// extracted, when non-nil, observes every Best-Greedy extraction; only
	// tests set it, to pin the memoized extractor against a from-scratch
	// greedy at each call.
	extracted func(cfg iset.Set, cost float64)
}

// maxStalled bounds consecutive budget-free episodes: an episode normally
// consumes one what-if call; when the sampled pair is already cached the
// episode is free, so the stall guard bounds saturated searches.
const maxStalled = 2000

// Enumerate implements search.Algorithm (Algorithm 3's Main).
func (m MCTS) Enumerate(s *search.Session) iset.Set {
	return m.newTuner(s).enumerate()
}

func (m MCTS) newTuner(s *search.Session) *tuner {
	t := &tuner{opts: m.Opts, name: m.Name(), s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
	t.priors = make([]float64, s.NumCandidates())
	return t
}

// enumerate runs the prior phase, the episode pipeline and the extraction.
func (t *tuner) enumerate() iset.Set {
	s := t.s
	workers := workerCount(s)
	if t.opts.Policy == PolicyPrior || t.opts.Policy == PolicyBoltzmann {
		s.Trace.SetPhase(trace.PhasePriors)
		t.computePriors(workers)
	}
	s.Trace.SetPhase(trace.PhaseSearch)
	t.buildPriorPrefix()
	if t.opts.Policy == PolicyBoltzmann {
		t.buildExpPriorPrefix()
	}
	if t.opts.RAVE {
		t.rave = newRaveStats(s.NumCandidates())
	}
	t.root = t.newNode(iset.Set{}, 0)
	t.bestCfg = iset.Set{}
	// A cancellation that arrived during the prior phase takes effect before
	// the first episode rather than after it.
	s.CheckCancel()
	t.run(workers)
	return t.extract()
}

// stopCheckInterval is the number of committed episodes between early-stop
// checks. The bound gap must be evaluated at the configuration extraction
// would return if the run stopped now — the Best-Greedy completion over the
// recorded entries — not at the in-episode bestCfg: rollouts keep bestCfg
// small (a handful of indexes with a fraction of the extractable
// improvement), so its gap plateaus far above any useful tolerance while
// the extractable configuration is already within epsilon. Computing that
// completion is a derived-only greedy run, so it is amortized over an
// interval of commits; the counter advances in commit order, keeping
// Workers=N runs deterministic. The extraction is memoized across checks
// (greedy.Extractor), so each check pays only for the greedy work the
// entries recorded since the previous check can change.
const stopCheckInterval = 50

// checkStop runs the cancellation check and the early-stopping rule at an
// episode commit point, reporting whether the session is (now) terminated.
// Cancellation is checked first and unconditionally: it is a single context
// poll, needs no StopEpsilon, and a cancelled session must wind down even
// when stopping is disarmed.
func (t *tuner) checkStop() bool {
	s := t.s
	if s.CheckCancel() {
		return true
	}
	if s.StopEpsilon <= 0 {
		return false
	}
	if s.Stopped() {
		return true
	}
	t.sinceStopCheck++
	if t.sinceStopCheck < stopCheckInterval {
		return false
	}
	t.sinceStopCheck = 0
	cfg, _ := t.bestGreedy()
	return s.CheckStop(cfg)
}

// bestGreedy returns the Best-Greedy configuration over the entries recorded
// so far and its derived workload cost. One extractor serves the run's
// early-stop checks and its final extraction.
func (t *tuner) bestGreedy() (iset.Set, float64) {
	if t.bg == nil {
		t.bg = greedy.NewExtractor(t.s, t.s.K)
	}
	cfg, c := t.bg.Run()
	if t.extracted != nil {
		t.extracted(cfg, c)
	}
	return cfg, c
}

// priorBudget returns Algorithm 4's pair budget B' = min(B/2, P), where P
// counts the (query, relevant candidate) pairs of rel.
func (t *tuner) priorBudget(rel [][]int) int {
	totalPairs := 0
	for _, per := range rel {
		totalPairs += len(per)
	}
	budget := t.s.Budget / 2
	if totalPairs < budget {
		budget = totalPairs
	}
	return budget
}

// priorPairs enumerates the (query, candidate) pair sequence Algorithm 4
// evaluates over the relevant lists rel — round-robin over queries, largest
// tables first within a query — which is enumerable without any cost values.
func (t *tuner) priorPairs(rel [][]int, budget int) []priorPair {
	order := make([][]int, len(rel))
	for qi, per := range rel {
		order[qi] = sortByTableRows(t.s, per)
	}
	next := make([]int, len(order))
	pairs := make([]priorPair, 0, budget)
	for len(pairs) < budget {
		progressed := false
		for qi := range order {
			if len(pairs) >= budget {
				break
			}
			if next[qi] >= len(order[qi]) {
				continue
			}
			pairs = append(pairs, priorPair{qi, order[qi][next[qi]]})
			next[qi]++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return pairs
}

// priorPair is one Algorithm-4 evaluation: candidate ord against query qi.
type priorPair struct{ qi, ord int }

// computePriors is Algorithm 4: spend B' = min(B/2, P) what-if calls on
// singleton configurations, selecting queries round-robin and, within a
// query, candidates on the largest tables first. The pair sequence is
// reserved in that order under one mutex hold, the evaluations fan over the
// workers against per-query plan spaces, and commits land in the same order
// — so priors, budget consumption, derived store, and the trace event
// stream (its commit events are the call layout) are the same at any worker
// count. StopOnExhausted
// truncates the batch at the first failed what-if call, which abandons the
// pass (including that pair's derived fallback).
func (t *tuner) computePriors(workers int) {
	s := t.s
	rel := make([][]int, len(s.W.Queries))
	for qi := range rel {
		rel[qi] = s.Relevant(qi)
	}
	budget := t.priorBudget(rel)
	pairs := t.priorPairs(rel, budget)

	costW := make([]float64, s.NumCandidates())
	for i := range costW {
		costW[i] = t.baseW
	}
	b := &search.Batch{StopOnExhausted: true}
	for _, p := range pairs {
		b.Add(p.qi, iset.FromOrdinals(p.ord))
	}
	s.ReserveBatch(b)
	s.EvaluateReservedBatch(b, workers)
	s.CommitReservedBatch(b)
	for i := 0; i < b.Len(); i++ {
		if b.Outcome(i) == search.BatchExhausted {
			// A failed call abandons the pass, leaving every prior at zero.
			return
		}
		w := s.W.Queries[pairs[i].qi].EffectiveWeight()
		costW[pairs[i].ord] += w * (b.Cost(i) - s.Derived.Base(pairs[i].qi))
	}
	for ord := range t.priors {
		eta := 0.0
		if t.baseW > 0 {
			eta = 1 - costW[ord]/t.baseW
		}
		if eta < 0 {
			eta = 0
		}
		t.priors[ord] = eta
	}
}

// sortByTableRows orders a query's candidate ordinals for Algorithm 4's
// IndexSelection: indexes on the largest tables first (the paper's policy),
// breaking ties by how many queries the candidate was generated for
// (Candidate.Queries) — an index shared by many queries is evaluated before
// a single-query specialist.
func sortByTableRows(s *search.Session, per []int) []int {
	out := append([]int(nil), per...)
	key := func(ord int) (int64, int) {
		c := &s.Cands.Candidates[ord]
		return c.TableRows, len(c.Queries)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, qi := key(out[i])
		rj, qj := key(out[j])
		if ri != rj {
			return ri > rj
		}
		return qi > qj
	})
	return out
}

func (t *tuner) newNode(cfg iset.Set, depth int) *node {
	return &node{cfg: cfg, depth: depth}
}

// buildPriorPrefix precomputes cumulative prior sums for O(log n)
// proportional sampling over the candidate universe.
func (t *tuner) buildPriorPrefix() {
	t.priorPrefix = make([]float64, len(t.priors)+1)
	for i, p := range t.priors {
		t.priorPrefix[i+1] = t.priorPrefix[i] + p
	}
	t.priorTotal = t.priorPrefix[len(t.priors)]
}

// samplePrior draws a candidate ordinal with probability proportional to its
// prior, rejecting members of the excluded function. Returns -1 when the
// prior mass is empty or rejection keeps failing.
func (t *tuner) samplePrior(excluded func(int) bool) int {
	if t.priorTotal <= 0 {
		return -1
	}
	for try := 0; try < 64; try++ {
		x := t.rng.Float64() * t.priorTotal
		ord := sort.SearchFloat64s(t.priorPrefix, x)
		if ord > 0 {
			ord--
		}
		// SearchFloat64s finds the insertion point; map it to the owning
		// candidate interval [prefix[ord], prefix[ord+1]).
		for ord < len(t.priors) && t.priorPrefix[ord+1] < x {
			ord++
		}
		if ord >= len(t.priors) {
			ord = len(t.priors) - 1
		}
		if !excluded(ord) {
			return ord
		}
	}
	return -1
}

// sampleUniform draws a uniform candidate ordinal outside the excluded set,
// or -1 if none can be found.
func (t *tuner) sampleUniform(excluded func(int) bool) int {
	n := t.s.NumCandidates()
	if n == 0 {
		return -1
	}
	for try := 0; try < 64; try++ {
		ord := t.rng.Intn(n)
		if !excluded(ord) {
			return ord
		}
	}
	// Dense exclusion: linear scan from a random start.
	start := t.rng.Intn(n)
	for i := 0; i < n; i++ {
		ord := (start + i) % n
		if !excluded(ord) {
			return ord
		}
	}
	return -1
}

// backup propagates an episode's reward: best-configuration tracking, RAVE
// credit, and visit/value updates along the selection path. It also emits the
// episode's trace event; commitEpisode reaches it in episode order, so the
// event stream is deterministic.
func (t *tuner) backup(path []*node, acts []int, cfg iset.Set, eta float64) {
	improved := eta > t.bestEta || t.bestCfg.Empty()
	if improved {
		t.bestEta = eta
		t.bestCfg = cfg.Clone()
	}
	if t.s.Trace != nil {
		t.s.Trace.Episode(t.name, t.ep, cfg.Key(), eta, actionsLabel(acts), t.inflightN, t.s.Used())
		if improved {
			t.s.Trace.Point(t.s.Used(), 100*eta)
		}
	}
	t.ep++
	if t.rave != nil {
		t.rave.update(cfg.Ordinals(), eta)
	}
	for i, n := range path {
		n.visits++
		n.visited = true
		if i < len(acts) {
			st := n.stat(acts[i], t.priors[acts[i]])
			st.n++
			st.sum += eta
		}
	}
}

// actionsLabel renders a selection path's action ordinals as "a,b,c" for the
// episode trace event. Only called when tracing is enabled.
func actionsLabel(acts []int) string {
	if len(acts) == 0 {
		return ""
	}
	s := strconv.Itoa(acts[0])
	for _, a := range acts[1:] {
		s += "," + strconv.Itoa(a)
	}
	return s
}

// sample is Algorithm 3's SampleConfiguration: descend the tree by the
// action-selection policy, expanding one node per episode, and roll out from
// fresh leaves.
func (t *tuner) sample(n *node, path *[]*node, acts *[]int) iset.Set {
	*path = append(*path, n)
	if len(n.children) == 0 && !n.visited {
		return t.rollout(n)
	}
	if n.depth >= t.s.K {
		return n.cfg
	}
	a := t.selectAction(n)
	if a < 0 {
		return n.cfg
	}
	*acts = append(*acts, a)
	child, ok := n.children[a]
	if !ok {
		if n.children == nil {
			n.children = make(map[int]*node)
		}
		child = t.newNode(n.cfg.With(a), n.depth+1)
		n.children[a] = child
	}
	return t.sample(child, path, acts)
}

// selectAction implements Section 6.1 plus the extended policies.
func (t *tuner) selectAction(n *node) int {
	switch t.opts.Policy {
	case PolicyUCT:
		return t.selectUCT(n)
	case PolicyBoltzmann:
		return t.selectBoltzmann(n)
	case PolicyUniform:
		return t.selectUniformPolicy(n)
	default:
		return t.selectProportional(n)
	}
}

func (t *tuner) selectUCT(n *node) int {
	excluded := func(ord int) bool {
		return n.cfg.Has(ord) || !t.s.FitsStorage(n.cfg, ord) || n.taken(ord)
	}
	// Unvisited actions have infinite UCB score: visit one first. With
	// sparse stats, any candidate without a stat entry is unvisited.
	if len(n.statKeys) < t.s.NumCandidates()-n.cfg.Len() {
		if a := t.sampleUniform(excluded); a >= 0 {
			return t.claim(n, a)
		}
	}
	// In-flight episodes count as visits (virtual loss): both terms shrink
	// for actions already being explored, steering concurrent selections
	// apart. With no episodes in flight the formula is exactly Equation 5
	// with the exploration constant λ = √2.
	lnN := math.Log(float64(n.visits+n.vvisits) + 1)
	best, bestScore := -1, math.Inf(-1)
	for i, a := range n.statKeys {
		st := &n.stats[i]
		denom := float64(st.n + st.vloss)
		if denom <= 0 {
			denom = 1
		}
		score := t.actionValue(a, st) + math.Sqrt2*math.Sqrt(lnN/denom)
		if score > bestScore {
			best, bestScore = a, score
		}
	}
	return best
}

// cfgBuf sizes the stack buffer the selection passes list a node's
// configuration into: nodes hold at most K members, so for K < cfgBuf the
// walk allocates nothing; a larger configuration spills to the heap.
const cfgBuf = 32

// claim materializes the stat entry for a freshly selected action.
func (t *tuner) claim(n *node, a int) int {
	n.stat(a, t.priors[a])
	return a
}

// selectProportional samples an action with probability proportional to its
// estimated action value (Equation 6): actions already taken from this node
// use their running estimate; all others fall back to their prior. Falls
// back to uniform when the total mass is zero.
func (t *tuner) selectProportional(n *node) int {
	inCfgOrStats := func(ord int) bool {
		return n.cfg.Has(ord) || !t.s.FitsStorage(n.cfg, ord) || n.taken(ord)
	}
	// Mass of the explicit stats plus the residual prior mass: the prior
	// total less the configuration's priors and then the stats' priors.
	// One pass over the stats feeds both sums, each in its own order.
	sumStats := 0.0
	rest := t.priorTotal
	var buf [cfgBuf]int32
	for _, ord := range n.cfg.AppendSmall(buf[:0]) {
		rest -= t.priors[ord]
	}
	for i, a := range n.statKeys {
		if !n.cfg.Has(a) {
			sumStats += t.actionValue(a, &n.stats[i])
			rest -= t.priors[a]
		}
	}
	if rest < 0 {
		rest = 0
	}
	total := sumStats + rest
	if total <= 0 {
		a := t.sampleUniform(func(ord int) bool {
			return n.cfg.Has(ord) || !t.s.FitsStorage(n.cfg, ord)
		})
		if a >= 0 {
			return t.claim(n, a)
		}
		return -1
	}
	x := t.rng.Float64() * total
	if x < sumStats {
		for i, a := range n.statKeys {
			if n.cfg.Has(a) {
				continue
			}
			x -= t.actionValue(a, &n.stats[i])
			if x <= 0 {
				return a
			}
		}
	}
	if a := t.samplePrior(inCfgOrStats); a >= 0 {
		return t.claim(n, a)
	}
	// Prior mass exhausted by exclusions: any untried candidate.
	if a := t.sampleUniform(inCfgOrStats); a >= 0 {
		return t.claim(n, a)
	}
	if len(n.statKeys) > 0 {
		return n.statKeys[t.rng.Intn(len(n.statKeys))]
	}
	return -1
}

// rollout implements Section 6.2: draw a look-ahead step size l and insert l
// random indexes into the leaf's configuration.
func (t *tuner) rollout(n *node) iset.Set {
	maxStep := t.s.K - n.depth
	if maxStep < 0 {
		maxStep = 0
	}
	var l int
	if t.opts.Rollout == RolloutFixedStep {
		l = t.opts.FixedStep
		if l > maxStep {
			l = maxStep
		}
	} else if maxStep > 0 {
		l = t.rng.Intn(maxStep + 1)
	}
	if l == 0 {
		return n.cfg
	}
	cfg := n.cfg.Clone()
	excluded := func(ord int) bool {
		return cfg.Has(ord) || !t.s.FitsStorage(cfg, ord)
	}
	for step := 0; step < l; step++ {
		ord := -1
		if t.opts.Policy == PolicyPrior {
			ord = t.samplePrior(excluded)
		}
		if ord < 0 {
			ord = t.sampleUniform(excluded)
		}
		if ord < 0 {
			break
		}
		cfg.Add(ord)
	}
	return cfg
}

// pickQuery samples a query proportional to derived cost, preferring pairs
// this session has not asked for yet so each episode makes progress. The
// check is session-local (not the optimizer's global cache), so a shared,
// pre-warmed what-if cache cannot steer the search differently than a fresh
// one would. seen is scratch of len(d): the first pass asks the session
// once per query and the later passes read the answers back.
func (t *tuner) pickQuery(cfg iset.Set, d []float64, total float64, seen []bool) int {
	uncachedTotal := 0.0
	for qi := range d {
		seen[qi] = t.s.Seen(qi, cfg)
		if !seen[qi] {
			uncachedTotal += d[qi]
		}
	}
	uncachedOnly := uncachedTotal > 0
	budget := total
	if uncachedOnly {
		budget = uncachedTotal
	}
	if budget <= 0 {
		// All derived costs are zero: pick the first unseen query, if any.
		for qi := range d {
			if !seen[qi] {
				return qi
			}
		}
		return -1
	}
	x := t.rng.Float64() * budget
	for qi := range d {
		if uncachedOnly && seen[qi] {
			continue
		}
		x -= d[qi]
		if x <= 0 {
			return qi
		}
	}
	return len(d) - 1
}

// extract implements Section 6.3.
func (t *tuner) extract() iset.Set {
	t.s.Trace.SetPhase(trace.PhaseFinal)
	switch t.opts.Extraction {
	case ExtractBCE:
		return t.trimToK(t.bestCfg)
	case ExtractBG:
		cfg, _ := t.bestGreedy()
		return cfg
	default:
		bg, bgCost := t.bestGreedy()
		bce := t.trimToK(t.bestCfg)
		if t.s.Derived.Workload(bce) < bgCost {
			return bce
		}
		return bg
	}
}

// trimToK drops the least useful indexes when a rollout produced a
// configuration larger than K (possible only via storage-constraint
// retries), keeping extraction within the cardinality constraint.
func (t *tuner) trimToK(cfg iset.Set) iset.Set {
	for cfg.Len() > t.s.K {
		ords := cfg.Ordinals()
		bestDrop, bestCost := ords[0], math.Inf(1)
		for _, o := range ords {
			c := t.s.Derived.Workload(cfg.Without(o))
			if c < bestCost {
				bestDrop, bestCost = o, c
			}
		}
		cfg = cfg.Without(bestDrop)
	}
	return cfg
}

// Default returns the paper's recommended configuration: ε-greedy with
// priors, myopic step-0 rollout, Best-Greedy extraction (Section 7.1).
func Default() MCTS {
	return MCTS{Opts: Options{
		Policy:     PolicyPrior,
		Rollout:    RolloutFixedStep,
		FixedStep:  0,
		Extraction: ExtractBG,
	}}
}
