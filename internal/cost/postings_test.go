package cost

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"indextune/internal/iset"
)

// refQuery, refBounds and refQueryWith are the linear scans over every
// recorded entry that the posting index replaced. They stay as the
// specification the indexed reads must reproduce bit for bit.

func refQuery(ds *DerivedStore, qi int, cfg iset.Set) float64 {
	d := ds.Base(qi)
	for pos := 0; pos < ds.Entries(qi); pos++ {
		set, c := ds.EntryAt(qi, pos)
		if c < d && set.SubsetOfSet(cfg) {
			d = c
		}
	}
	return d
}

func refBounds(ds *DerivedStore, qi int, cfg iset.Set) (lo, hi float64) {
	hi = ds.Base(qi)
	if f, ok := ds.Floor(qi); ok && f > 0 {
		lo = f
	}
	ords := cfg.Ordinals()
	for pos := 0; pos < ds.Entries(qi); pos++ {
		set, c := ds.EntryAt(qi, pos)
		if set.SubsetOfSet(cfg) && c < hi {
			hi = c
		}
		sup := true
		for _, o := range ords {
			if !set.Contains(o) {
				sup = false
				break
			}
		}
		if c > lo && sup {
			lo = c
		}
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

func refQueryWith(ds *DerivedStore, qi int, base iset.Set, dBase float64, add int) float64 {
	d := dBase
	for pos := 0; pos < ds.Entries(qi); pos++ {
		set, c := ds.EntryAt(qi, pos)
		if !set.Contains(add) || c >= d {
			continue
		}
		ok := true
		for _, o := range set {
			if int(o) != add && !base.Has(int(o)) {
				ok = false
				break
			}
		}
		if ok {
			d = c
		}
	}
	return d
}

// realMWidth is the Real-M candidate universe: configurations over it span
// 192 bitset words.
const realMWidth = 12284

// streamGen draws configurations the way a tuning run produces them: mostly
// from a small hot pool of ordinals, so subset and superset relations are
// common, with occasional ordinals from anywhere in the Real-M universe.
type streamGen struct {
	rng *rand.Rand
	hot []int
}

func newStreamGen(seed int64) *streamGen {
	g := &streamGen{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 14; i++ {
		g.hot = append(g.hot, g.rng.Intn(realMWidth))
	}
	return g
}

func (g *streamGen) ord() int {
	if g.rng.Intn(5) == 0 {
		return g.rng.Intn(realMWidth)
	}
	return g.hot[g.rng.Intn(len(g.hot))]
}

// cfg returns a configuration of up to K+1 = 11 members, empty one time in
// eight.
func (g *streamGen) cfg() iset.Set {
	var s iset.Set
	if g.rng.Intn(8) == 0 {
		return s
	}
	for n := 1 + g.rng.Intn(11); n > 0; n-- {
		s.Add(g.ord())
	}
	return s
}

// probe derives a read-side configuration: a recorded one as is, shrunk, or
// grown, or a fresh random one.
func (g *streamGen) probe(recorded []iset.Set) (cfg iset.Set, exact bool) {
	if len(recorded) == 0 || g.rng.Intn(4) == 0 {
		return g.cfg(), false
	}
	cfg = recorded[g.rng.Intn(len(recorded))].Clone()
	switch g.rng.Intn(3) {
	case 0:
		return cfg, true
	case 1:
		if ords := cfg.Ordinals(); len(ords) > 0 {
			cfg.Remove(ords[g.rng.Intn(len(ords))])
		}
	default:
		cfg.Add(g.ord())
	}
	return cfg, false
}

// refTouched lists, per ordinal, the queries whose entries mention it, in
// the order of each query's first such entry — the queries of the
// ordinal-major (query, posting) relation.
type refTouched struct {
	lists map[int][]int
	seen  map[[2]int]bool
}

func (r *refTouched) record(qi int, cfg iset.Set) {
	for _, o := range cfg.Ordinals() {
		if !r.seen[[2]int{qi, o}] {
			r.seen[[2]int{qi, o}] = true
			r.lists[o] = append(r.lists[o], qi)
		}
	}
}

// refOrdinals lists the distinct ordinals of query qi's entries in the
// order of their first mention.
func refOrdinals(ds *DerivedStore, qi int) []int32 {
	var ords []int32
	seen := map[int32]bool{}
	for pos := 0; pos < ds.Entries(qi); pos++ {
		set, _ := ds.EntryAt(qi, pos)
		for _, o := range set {
			if !seen[o] {
				seen[o] = true
				ords = append(ords, o)
			}
		}
	}
	return ords
}

// checkByOrd reports the first way the ordinal-major relation departs from
// its definition: TouchedQueries(o) lists the queries of want[o] in order,
// each with the posting its index maps o to, and no other ordinal has a
// list.
func checkByOrd(ds *DerivedStore, want map[int][]int) error {
	if len(ds.byOrd) != len(want) {
		return fmt.Errorf("%d ordinals have queries, want %d", len(ds.byOrd), len(want))
	}
	for o, qs := range want {
		got := ds.TouchedQueries(o)
		if len(got) != len(qs) {
			return fmt.Errorf("TouchedQueries(%d) lists %d queries, want %v", o, len(got), qs)
		}
		for i, tc := range got {
			if int(tc.Query) != qs[i] {
				return fmt.Errorf("TouchedQueries(%d)[%d] is q%d, want q%d", o, i, tc.Query, qs[i])
			}
			if p := ds.byQ[tc.Query].find(int32(o)); tc.posting != p {
				return fmt.Errorf("TouchedQueries(%d)[%d] names posting %d of q%d, want %d", o, i, tc.posting, tc.Query, p)
			}
		}
	}
	return nil
}

// The indexed reads equal the linear scans exactly over random interleaved
// record streams at Real-M width: empty and duplicate configurations,
// universe floors, and probes at, below and above recorded entries. Each
// stream also keeps the ordinal-major (query, posting) relation and each
// query's Ordinals equal to their definitions, and every query's index
// sized by the ordinals it recorded.
func TestPostingReadsMatchLinearScan(t *testing.T) {
	const nq = 5
	for seed := int64(1); seed <= 20; seed++ {
		g := newStreamGen(seed)
		base := make([]float64, nq)
		for i := range base {
			base[i] = 100 + 900*g.rng.Float64()
		}
		ds := NewDerivedStore(nQueryWorkload(nq), base)
		recorded := make([][]iset.Set, nq)
		touched := refTouched{lists: map[int][]int{}, seen: map[[2]int]bool{}}
		for step := 0; step < 1000; step++ {
			qi := g.rng.Intn(nq)
			switch r := g.rng.Intn(20); {
			case r == 0:
				ds.RecordFloor(qi, base[qi]*g.rng.Float64()*0.5)
			case r < 3 && len(recorded[qi]) > 0:
				// A duplicate configuration at a different cost.
				cfg := recorded[qi][g.rng.Intn(len(recorded[qi]))]
				ds.Record(qi, cfg, base[qi]*g.rng.Float64())
			default:
				cfg := g.cfg()
				ds.Record(qi, cfg, base[qi]*g.rng.Float64())
				recorded[qi] = append(recorded[qi], cfg)
				touched.record(qi, cfg)
			}
			if step%25 != 24 {
				continue
			}
			all := make([]float64, nq)
			for k := 0; k < 20; k++ {
				qi := g.rng.Intn(nq)
				cfg, exact := g.probe(recorded[qi])
				if got, want := ds.Query(qi, cfg), refQuery(ds, qi, cfg); got != want {
					t.Fatalf("seed %d step %d: Query(q%d, %v) = %v, want %v", seed, step, qi, cfg, got, want)
				}
				ds.QueryAll(cfg, all)
				for qj, got := range all {
					if want := refQuery(ds, qj, cfg); got != want {
						t.Fatalf("seed %d step %d: QueryAll(%v)[q%d] = %v, want %v", seed, step, cfg, qj, got, want)
					}
				}
				lo, hi := ds.Bounds(qi, cfg)
				wlo, whi := refBounds(ds, qi, cfg)
				if lo != wlo || hi != whi {
					t.Fatalf("seed %d step %d: Bounds(q%d, %v) = (%v, %v), want (%v, %v)",
						seed, step, qi, cfg, lo, hi, wlo, whi)
				}
				if exact && lo != hi {
					t.Fatalf("seed %d step %d: recorded %v has open bounds (%v, %v)", seed, step, cfg, lo, hi)
				}
				add := g.ord()
				cfg.Remove(add)
				dBase := refQuery(ds, qi, cfg)
				want := refQueryWith(ds, qi, cfg, dBase, add)
				if got := ds.QueryWith(qi, cfg, dBase, add); got != want {
					t.Fatalf("seed %d step %d: QueryWith(q%d, %v, +%d) = %v, want %v", seed, step, qi, cfg, add, got, want)
				}
				for _, tc := range ds.TouchedQueries(add) {
					qi := int(tc.Query)
					dBase := refQuery(ds, qi, cfg)
					if got, want := ds.QueryWithTouch(tc, cfg, dBase, add), refQueryWith(ds, qi, cfg, dBase, add); got != want {
						t.Fatalf("seed %d step %d: QueryWithTouch(q%d, %v, +%d) = %v, want %v", seed, step, qi, cfg, add, got, want)
					}
				}
			}
			if err := checkByOrd(ds, touched.lists); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for qi := 0; qi < nq; qi++ {
				if got, want := ds.Ordinals(qi), refOrdinals(ds, qi); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Ordinals(q%d) = %v, want %v", seed, step, qi, got, want)
				}
			}
		}
		// The index grows by doubling once it is half full, so it never holds
		// more than four slots per ordinal recorded.
		for qi := range ds.byQ {
			p := &ds.byQ[qi]
			if len(p.index) > max(indexMinSlots, 4*len(p.lists)) {
				t.Fatalf("seed %d: q%d index has %d slots for %d ordinals", seed, qi, len(p.index), len(p.lists))
			}
		}
	}
}

// Query, QueryAll, Bounds, QueryWith and QueryWithTouch read through stack
// buffers and never allocate, even with a configuration spanning the
// Real-M universe; Ordinals returns the store's own slice.
func TestPostingReadsAllocationFree(t *testing.T) {
	g := newStreamGen(3)
	ds := NewDerivedStore(nQueryWorkload(2), []float64{500, 700})
	for i := 0; i < 300; i++ {
		ds.Record(i%2, g.cfg(), 400*g.rng.Float64())
	}
	cfg := iset.FromOrdinals(g.hot[:10]...)
	cfg.Add(realMWidth - 1)
	d := make([]float64, 2)
	touched := ds.TouchedQueries(g.hot[11])
	if len(touched) == 0 {
		t.Fatal("no query touches the probed ordinal")
	}
	allocs := testing.AllocsPerRun(100, func() {
		ds.Query(0, cfg)
		ds.QueryAll(cfg, d)
		ds.Bounds(1, cfg)
		ds.QueryWith(0, cfg, 500, g.hot[11])
		ds.QueryWithTouch(touched[0], cfg, 500, g.hot[11])
		ds.Ordinals(1)
	})
	if allocs != 0 {
		t.Fatalf("reads allocate %v times per run", allocs)
	}
}
