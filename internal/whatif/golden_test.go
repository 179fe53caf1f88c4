package whatif

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// updateGolden rewrites the committed cost digest from the current tree:
//
//	go test -run TestCostDigest ./internal/whatif -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden tables from the current tree")

// costGoldenPath holds one line per (workload, query) of the cost digest
// over TPC-H and a synthesized schema; realCostGoldenPath holds the same
// lines for Real-D and Real-M.
const (
	costGoldenPath     = "testdata/cost_golden.tsv"
	realCostGoldenPath = "testdata/cost_real_golden.tsv"
)

// digestWorkloads is the cost digest's population: TPC-H plus one
// synthesized schema.
func digestWorkloads(t *testing.T) []*workload.Workload {
	t.Helper()
	w, err := workload.Synthesize(workload.SynthSpec{
		Name: "synth7", Seed: 7,
		NumTables: 12, NumQueries: 16,
		ScansMean: 3, ScansJitter: 1, FiltersMean: 2,
		ExtraScan: 0.2, TablePool: 10,
		RowsMin: 10_000, RowsMax: 2_000_000,
		PayloadMin: 16, PayloadMax: 120,
		HotTables: 3, HotProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*workload.Workload{workload.ByName("tpch"), w}
}

// digestCandidates widens candidatesFor with the index shapes it lacks —
// non-covering filter keys, two-column seek prefixes, and sort-order keys —
// so the digest exercises lookups, range-terminated prefixes, and avoided
// sorts, not only covering scans.
func digestCandidates(w *workload.Workload) []schema.Index {
	out := candidatesFor(w)
	seen := make(map[string]bool, len(out))
	for _, ix := range out {
		seen[ix.ID()] = true
	}
	add := func(ix schema.Index) {
		if !seen[ix.ID()] {
			seen[ix.ID()] = true
			out = append(out, ix)
		}
	}
	for _, q := range w.Queries {
		for ri := range q.Refs {
			r := &q.Refs[ri]
			for fi, f := range r.Filters {
				add(schema.Index{Table: r.Table, Key: []string{f.Column}})
				if fi+1 < len(r.Filters) {
					add(schema.Index{Table: r.Table, Key: []string{f.Column, r.Filters[fi+1].Column}})
				}
			}
			if len(r.SortCols) > 0 {
				add(schema.Index{Table: r.Table, Key: append([]string(nil), r.SortCols...)})
			}
			for _, jc := range r.JoinCols {
				add(schema.Index{Table: r.Table, Key: []string{jc}})
			}
		}
	}
	return out
}

// digestConfigs returns the fixed seeded configurations scored for query
// qi: the empty set, the full universe, relevant singletons, random sparse
// mixes drawn half from the query's relevance set, and dense random halves.
func digestConfigs(o *Optimizer, q *workload.Query, qi int) []iset.Set {
	rng := rand.New(rand.NewSource(int64(qi) + 1))
	n := len(o.Candidates)
	rel := o.Relevance(q).Ordinals()
	univ := iset.NewSet(n)
	for ord := 0; ord < n; ord++ {
		univ.Add(ord)
	}
	cfgs := []iset.Set{{}, univ}
	for i := 0; i < 6 && i < len(rel); i++ {
		cfgs = append(cfgs, iset.FromOrdinals(rel[rng.Intn(len(rel))]))
	}
	for i := 0; i < 20; i++ {
		var s iset.Set
		for k := 1 + rng.Intn(8); k > 0; k-- {
			if len(rel) > 0 && rng.Intn(2) == 0 {
				s.Add(rel[rng.Intn(len(rel))])
			} else {
				s.Add(rng.Intn(n))
			}
		}
		cfgs = append(cfgs, s)
	}
	for i := 0; i < 2; i++ {
		var s iset.Set
		for ord := 0; ord < n; ord++ {
			if rng.Intn(2) == 0 {
				s.Add(ord)
			}
		}
		cfgs = append(cfgs, s)
	}
	return cfgs
}

// costBitsDigest hashes the float64 bits of costs in order.
func costBitsDigest(costs []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range costs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readCostGolden loads the "name<TAB>line" digest table at path.
func readCostGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, "\t")
		out[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// costField returns the named "key=value" field of a golden line.
func costField(line, key string) string {
	for _, f := range strings.Split(line, "\t") {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// realDigestWorkloads is the real-workload digest's population.
func realDigestWorkloads(*testing.T) []*workload.Workload {
	return []*workload.Workload{workload.ByName("real-d"), workload.ByName("real-m")}
}

// generatedCandidates is the candidate universe the tuner itself builds for
// w.
func generatedCandidates(w *workload.Workload) []schema.Index {
	return candgen.Generate(w, candgen.Options{}).Indexes()
}

// realDigestConfigs extends digestConfigs with two configurations built
// around ordinals outside the query's relevance set: up to eight irrelevant
// ordinals alone (cfg ∩ Relevance = ∅), and the same plus one relevant
// ordinal.
func realDigestConfigs(o *Optimizer, q *workload.Query, qi int) []iset.Set {
	cfgs := digestConfigs(o, q, qi)
	rng := rand.New(rand.NewSource(int64(qi) + 101))
	rel := o.Relevance(q)
	var irr iset.Set
	for tries := 0; tries < 64 && irr.Len() < 8; tries++ {
		if ord := rng.Intn(len(o.Candidates)); !rel.Has(ord) {
			irr.Add(ord)
		}
	}
	cfgs = append(cfgs, irr)
	if ords := rel.Ordinals(); len(ords) > 0 {
		cfgs = append(cfgs, irr.With(ords[rng.Intn(len(ords))]))
	}
	return cfgs
}

// costDigest is one committed cost digest: its golden table, its
// population, and how each workload's candidates and each query's seeded
// configurations are built.
type costDigest struct {
	path      string
	workloads func(*testing.T) []*workload.Workload
	cands     func(*workload.Workload) []schema.Index
	configs   func(*Optimizer, *workload.Query, int) []iset.Set
}

// TestCostDigest pins the cost model against a digest recorded while two
// independent walks (the per-configuration plan walk and the plan-space
// evaluation) were still verified bit-identical: for every query of the
// digest workloads and every fixed seeded configuration, the float64 bits
// of BaseCost and PeekCost and the Plan JSON must hash to the committed
// values.
func TestCostDigest(t *testing.T) {
	checkCostDigest(t, costDigest{costGoldenPath, digestWorkloads, digestCandidates, digestConfigs})
}

// TestCostDigestReal pins the same digest on Real-D and Real-M over the
// generated candidate universe, whose queries are far wider (about 21 refs
// per Real-M query) and whose configurations mostly miss each query's
// relevance set.
func TestCostDigestReal(t *testing.T) {
	checkCostDigest(t, costDigest{realCostGoldenPath, realDigestWorkloads, generatedCandidates, realDigestConfigs})
}

// checkCostDigest compares (or, with -update-golden, rewrites) one digest.
func checkCostDigest(t *testing.T, d costDigest) {
	want := readCostGolden(t, d.path)
	got := make(map[string]string)
	for _, w := range d.workloads(t) {
		o := New(w.DB, d.cands(w))
		for qi, q := range w.Queries {
			cfgs := d.configs(o, q, qi)
			costs := make([]float64, len(cfgs))
			plans := sha256.New()
			for k, cfg := range cfgs {
				costs[k] = o.PeekCost(q, cfg)
				js, err := o.Plan(q, cfg).JSON()
				if err != nil {
					t.Fatal(err)
				}
				plans.Write([]byte(js))
			}
			name := w.Name + "/" + q.ID
			got[name] = strings.Join([]string{
				fmt.Sprintf("base=%016x", math.Float64bits(o.BaseCost(q))),
				"cost=" + costBitsDigest(costs),
				"plan=" + hex.EncodeToString(plans.Sum(nil)),
			}, "\t")
			if !*updateGolden && got[name] != want[name] {
				t.Errorf("%s diverged from %s:\n  want: %s\n  got:  %s", name, d.path, want[name], got[name])
			}
		}
	}
	if *updateGolden && !t.Failed() {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# " + t.Name() + " golden: workload/query, BaseCost bits, SHA-256 of PeekCost bits and of Plan JSON over the seeded configurations.\n")
		for _, name := range names {
			b.WriteString(name + "\t" + got[name] + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCostPathsAgreeOnBuiltinWorkloads holds the three ways a cost is read
// to each other, bit for bit, on every built-in workload over its generated
// candidates and the real digest's seeded configurations: WhatIf against a
// resident full plan space, PeekCost on an optimizer that never built one,
// and Plan's total on that cold optimizer. A configuration that misses the
// query's relevance set must cost exactly BaseCost.
func TestCostPathsAgreeOnBuiltinWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		w := workload.ByName(name)
		cands := generatedCandidates(w)
		warm, cold := New(w.DB, cands), New(w.DB, cands)
		for qi, q := range w.Queries {
			warm.WhatIf(q, iset.Set{})
			rel := warm.Relevance(q)
			base := cold.BaseCost(q)
			for _, cfg := range realDigestConfigs(warm, q, qi) {
				got := warm.WhatIf(q, cfg)
				peek := cold.PeekCost(q, cfg)
				plan := cold.Plan(q, cfg).TotalCost
				if math.Float64bits(got) != math.Float64bits(peek) || math.Float64bits(peek) != math.Float64bits(plan) {
					t.Fatalf("%s %s cfg %v: WhatIf %v, PeekCost %v, Plan %v", name, q.ID, cfg, got, peek, plan)
				}
				if cfg.Intersect(rel).Empty() && math.Float64bits(peek) != math.Float64bits(base) {
					t.Fatalf("%s %s cfg %v misses the relevance set: PeekCost %v != BaseCost %v", name, q.ID, cfg, peek, base)
				}
			}
		}
		if st := cold.Stats(); st.PlanSpaces != 0 {
			t.Fatalf("%s: the cold optimizer interned %d plan spaces", name, st.PlanSpaces)
		}
	}
}
