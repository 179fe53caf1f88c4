package workload

import (
	"fmt"
	"math"
	"math/rand"

	"indextune/internal/schema"
)

// SynthSpec parameterizes the synthetic "real workload" generator used for
// the paper's proprietary Real-D and Real-M workloads. Only the statistical
// shape of those workloads is published (Table 1); the generator matches
// every published statistic: table count, query count, average joins,
// filters and scans per query, and total database size.
type SynthSpec struct {
	Name        string
	Seed        int64
	NumTables   int
	NumQueries  int
	ScansMean   float64 // average base-table accesses per query
	ScansJitter float64 // stddev of the per-query scan count
	FiltersMean float64 // average filter predicates per query
	ExtraScan   float64 // probability a ref joins nothing (scans > joins+1)
	TablePool   int     // queries draw tables from the first TablePool tables
	RowsMin     int64   // per-table row count range (log-uniform)
	RowsMax     int64
	PayloadMin  int // extra row width to reach the target database size
	PayloadMax  int
	HotTables   int     // small set of tables shared across many queries
	HotProb     float64 // probability a ref is drawn from the hot set
}

// RealD generates a synthetic stand-in for the paper's Real-D workload:
// 587 GB, 7,912 tables, 32 queries, ~15.6 joins and ~17 scans per query,
// almost no filters. A few queries dominate the cost, so a small number of
// high-impact indexes yield most of the improvement.
func RealD() *Workload {
	return mustSynthesize(SynthSpec{
		Name:        "Real-D",
		Seed:        587001,
		NumTables:   7912,
		NumQueries:  32,
		ScansMean:   17,
		ScansJitter: 3,
		FiltersMean: 0.2,
		ExtraScan:   0.08,
		TablePool:   180,
		RowsMin:     5_000,
		RowsMax:     80_000_000,
		PayloadMin:  60,
		PayloadMax:  400,
		HotTables:   24,
		HotProb:     0.45,
	})
}

// RealM generates a synthetic stand-in for the paper's Real-M workload:
// 26 GB, 474 tables, 317 queries, ~20 joins and ~22 scans per query. The
// large query count with thin per-query benefit is what starves FCFS-style
// budget allocation (Figure 10's vanilla-greedy collapse).
func RealM() *Workload {
	return mustSynthesize(SynthSpec{
		Name:        "Real-M",
		Seed:        260317,
		NumTables:   474,
		NumQueries:  317,
		ScansMean:   21.7,
		ScansJitter: 4,
		FiltersMean: 1.5,
		ExtraScan:   0.07,
		TablePool:   474,
		RowsMin:     1_000,
		RowsMax:     3_000_000,
		PayloadMin:  30,
		PayloadMax:  160,
		HotTables:   60,
		HotProb:     0.5,
	})
}

// validate rejects spec values the generator cannot produce a sound
// workload from; Synthesize reports them as errors so CLI flags (workloadgen
// -synth) fail cleanly instead of panicking downstream.
func (spec SynthSpec) validate() error {
	switch {
	case spec.NumTables < 1:
		return fmt.Errorf("workload: synth spec needs NumTables >= 1, got %d", spec.NumTables)
	case spec.NumQueries < 1:
		return fmt.Errorf("workload: synth spec needs NumQueries >= 1, got %d", spec.NumQueries)
	case spec.RowsMin < 1 || spec.RowsMax < spec.RowsMin:
		return fmt.Errorf("workload: synth spec needs 1 <= RowsMin <= RowsMax, got [%d, %d]", spec.RowsMin, spec.RowsMax)
	case spec.PayloadMin < 0 || spec.PayloadMax < spec.PayloadMin:
		return fmt.Errorf("workload: synth spec needs 0 <= PayloadMin <= PayloadMax, got [%d, %d]", spec.PayloadMin, spec.PayloadMax)
	case spec.ScansMean < 0 || spec.ScansJitter < 0 || spec.FiltersMean < 0:
		return fmt.Errorf("workload: synth spec needs non-negative ScansMean/ScansJitter/FiltersMean")
	case spec.HotProb < 0 || spec.HotProb > 1 || spec.ExtraScan < 0 || spec.ExtraScan > 1:
		return fmt.Errorf("workload: synth spec needs HotProb and ExtraScan in [0, 1]")
	}
	return nil
}

// mustSynthesize wraps Synthesize for the built-in Real-D/Real-M generators.
func mustSynthesize(spec SynthSpec) *Workload {
	w, err := Synthesize(spec)
	if err != nil {
		// invariant: the built-in specs are compile-time constants that
		// validate; only user-assembled specs can fail.
		panic(err)
	}
	return w
}

// Synthesize builds a workload from the spec, deterministically from
// spec.Seed. It reports an error when the spec itself is invalid (the CLI
// exposes these fields as flags).
func Synthesize(spec SynthSpec) (*Workload, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	db := schema.NewDatabase(spec.Name)

	pool := spec.TablePool
	if pool <= 0 || pool > spec.NumTables {
		pool = spec.NumTables
	}
	logMin, logMax := math.Log(float64(spec.RowsMin)), math.Log(float64(spec.RowsMax))
	for ti := 0; ti < spec.NumTables; ti++ {
		rows := int64(math.Exp(logMin + rng.Float64()*(logMax-logMin)))
		if ti >= pool {
			// Tables never touched by the workload stay small, so total
			// database size tracks the hot working set (Table 1's sizes).
			rows = int64(1000 + rng.Intn(50000))
		}
		cols := []schema.Column{{Name: "id", NDV: rows, Width: 8}}
		nfk := 2 + rng.Intn(3)
		for f := 0; f < nfk; f++ {
			// Small foreign-key fan-out keeps join cardinalities sane across
			// the deep (15-20 join) chains of the real workloads.
			ndv := rows / int64(1+rng.Intn(3))
			if ndv < 1 {
				ndv = 1
			}
			cols = append(cols, schema.Column{Name: fmt.Sprintf("fk%d", f), NDV: ndv, Width: 8})
		}
		nattr := 3 + rng.Intn(4)
		for a := 0; a < nattr; a++ {
			ndv := int64(2 + rng.Intn(10000))
			if ndv > rows {
				ndv = rows
			}
			cols = append(cols, schema.Column{Name: fmt.Sprintf("a%d", a), NDV: ndv, Width: 4 + rng.Intn(16)})
		}
		payload := spec.PayloadMin + rng.Intn(spec.PayloadMax-spec.PayloadMin+1)
		if payload > 0 {
			// A zero-width payload adds no row width, so it adds no column.
			cols = append(cols, schema.Column{Name: "payload", NDV: rows, Width: payload})
		}
		db.AddTable(schema.NewTable(fmt.Sprintf("t%04d", ti), rows, cols...))
	}

	hot := spec.HotTables
	if hot <= 0 || hot > pool {
		hot = pool
	}
	pickTable := func() *schema.Table {
		var ti int
		if rng.Float64() < spec.HotProb {
			ti = rng.Intn(hot)
		} else {
			ti = rng.Intn(pool)
		}
		return db.Table(fmt.Sprintf("t%04d", ti))
	}

	var qs []*Query
	for qi := 0; qi < spec.NumQueries; qi++ {
		scans := int(spec.ScansMean + spec.ScansJitter*rng.NormFloat64() + 0.5)
		if scans < 2 {
			scans = 2
		}
		b := NewBuilder(fmt.Sprintf("q%03d", qi+1))
		filtersWanted := poisson(rng, spec.FiltersMean)
		var refs []int
		var refTables []*schema.Table
		for si := 0; si < scans; si++ {
			t := pickTable()
			ri := b.RefAs(t.Name, fmt.Sprintf("%s_r%d", t.Name, si))
			refs = append(refs, ri)
			refTables = append(refTables, t)
			// Project one or two attribute columns.
			b.Proj(ri, attrCol(rng, t))
			if rng.Float64() < 0.4 {
				b.Proj(ri, attrCol(rng, t))
			}
			if si > 0 && rng.Float64() >= spec.ExtraScan {
				// Join to a random earlier ref. Mostly N:1 lookups into the
				// new ref's primary key (the dominant OLAP pattern); the rest
				// are 1:N expansions with small fan-out.
				pi := rng.Intn(si)
				prev, prevT := refs[pi], refTables[pi]
				if rng.Float64() < 0.85 {
					b.Join(prev, fkCol(rng, prevT), ri, "id")
				} else {
					b.Join(prev, "id", ri, fkCol(rng, t))
				}
			}
		}
		for f := 0; f < filtersWanted; f++ {
			ri := rng.Intn(len(refs))
			t := refTables[ri]
			col := attrCol(rng, t)
			if rng.Float64() < 0.6 {
				ndv := float64(colNDV(t, col))
				sel := 1 / ndv
				if sel < 1e-6 {
					sel = 1e-6
				}
				b.Eq(refs[ri], col, sel)
			} else {
				b.Range(refs[ri], col, 0.02+0.3*rng.Float64())
			}
		}
		if rng.Float64() < 0.3 {
			ri := rng.Intn(len(refs))
			b.Sort(refs[ri], attrCol(rng, refTables[ri]))
		}
		qs = append(qs, b.Build())
	}
	w := &Workload{Name: spec.Name, DB: db, Queries: qs}
	renumber(w)
	return w.MustValidate(), nil
}

// attrCol picks an attribute column, skewed toward the leading attributes so
// queries across the workload reuse the same columns (which is what lets
// candidate indexes be shared between queries, as in real workloads).
func attrCol(rng *rand.Rand, t *schema.Table) string {
	var attrs []string
	for _, c := range t.Columns {
		if len(c.Name) >= 2 && c.Name[0] == 'a' {
			attrs = append(attrs, c.Name)
		}
	}
	i := rng.Intn(len(attrs))
	if j := rng.Intn(len(attrs)); j < i {
		i = j
	}
	return attrs[i]
}

func fkCol(rng *rand.Rand, t *schema.Table) string {
	var fks []string
	for _, c := range t.Columns {
		if len(c.Name) >= 2 && c.Name[0] == 'f' {
			fks = append(fks, c.Name)
		}
	}
	return fks[rng.Intn(len(fks))]
}

func colNDV(t *schema.Table, col string) int64 {
	if c := t.Column(col); c != nil && c.NDV > 0 {
		return c.NDV
	}
	return 10
}

// poisson samples a Poisson variate with the given mean via Knuth's method;
// means used here are small.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ByName returns the named built-in workload generator, or nil for an
// unknown name. Both short names ("tpch") and display names ("TPC-H") are
// accepted, case-insensitively.
func ByName(name string) *Workload {
	switch NormalizeName(name) {
	case "tpch":
		return TPCH()
	case "tpcds":
		return TPCDS()
	case "job":
		return JOB()
	case "reald":
		return RealD()
	case "realm":
		return RealM()
	}
	return nil
}

// NormalizeName canonicalizes a workload name the way ByName matches it:
// ASCII letters lowercased, every character but a letter or a digit
// dropped ("TPC-H" → "tpch").
func NormalizeName(name string) string {
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'A' && c <= 'Z':
			b = append(b, c+'a'-'A')
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b = append(b, c)
		}
	}
	return string(b)
}

// Names lists the built-in workload names accepted by ByName.
func Names() []string {
	return []string{"tpch", "tpcds", "job", "real-d", "real-m"}
}
