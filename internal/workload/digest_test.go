package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// workloadDigests pins every built-in workload and two synthesized
// instances at seeds no built-in uses. A change to a generator, to the
// builder or to synthesis that moves any table, column statistic, query,
// ref or join changes its digest.
var workloadDigests = map[string]string{
	"tpch":          "8a076ce98c5c305ff72edc0da378f7aaeacbf0a7600b1bc42268fa558d25a81d",
	"tpcds":         "9ba047ed40ff77a2cd9cf64b8b2aed88664514336911b3fb16d3e8001ed17fc2",
	"job":           "b02f0ac1aeed9b18897dc31222f65cc4ff7fd52ce6d5ae63efdc8139f34fbd23",
	"real-d":        "98e5b1bf9857143b0fc0bf0bdc53fe0da670c340321b5cb4015107402d7d402e",
	"real-m":        "8218f588b7341fea9b07ce985201559a50216ce24cf4c27e6b9a1323b16a3bb5",
	"real-d@587002": "a72aa15f6282ab819ff5622d35b2dc719915cb8a425c223480af6f2c087da26a",
	"real-m@260326": "ff1bb1e1318ded44f8e5906b068815534a2349b82a14131cbe8e4b2e0c9f9dd6",
}

// workloadDigest hashes w: its names, every table in order with its rows
// and each column's name, NDV and width, then every query with its weight,
// SQL, refs (table, filters, join, need and sort columns) and joins, and
// last the Table 1 statistics.
func workloadDigest(w *Workload) string {
	h := sha256.New()
	fmt.Fprintf(h, "workload %q db %q\n", w.Name, w.DB.Name)
	for _, t := range w.DB.Tables() {
		fmt.Fprintf(h, "table %q %d\n", t.Name, t.Rows)
		for _, c := range t.Columns {
			fmt.Fprintf(h, "  col %q %d %d\n", c.Name, c.NDV, c.Width)
		}
	}
	for _, q := range w.Queries {
		fmt.Fprintf(h, "query %q %v %q\n", q.ID, q.Weight, q.SQL)
		for _, r := range q.Refs {
			fmt.Fprintf(h, "  ref %q join %q need %q sort %q\n", r.Table, r.JoinCols, r.Need, r.SortCols)
			for _, p := range r.Filters {
				fmt.Fprintf(h, "    filter %q %v %v\n", p.Column, p.Op, p.Selectivity)
			}
		}
		for _, j := range q.Joins {
			fmt.Fprintf(h, "  join %d %q %d %q\n", j.LeftRef, j.LeftCol, j.RightRef, j.RightCol)
		}
	}
	fmt.Fprintf(h, "stats %+v\n", w.ComputeStats())
	return hex.EncodeToString(h.Sum(nil))
}

// realDSpec and realMSpec are the built-in Real-D and Real-M specs at
// another generator seed.
func realDSpec(seed int64) SynthSpec {
	return SynthSpec{
		Name: "Real-D", Seed: seed,
		NumTables: 7912, NumQueries: 32,
		ScansMean: 17, ScansJitter: 3, FiltersMean: 0.2,
		ExtraScan: 0.08, TablePool: 180,
		RowsMin: 5_000, RowsMax: 80_000_000,
		PayloadMin: 60, PayloadMax: 400,
		HotTables: 24, HotProb: 0.45,
	}
}

func realMSpec(seed int64) SynthSpec {
	return SynthSpec{
		Name: "Real-M", Seed: seed,
		NumTables: 474, NumQueries: 317,
		ScansMean: 21.7, ScansJitter: 4, FiltersMean: 1.5,
		ExtraScan: 0.07, TablePool: 474,
		RowsMin: 1_000, RowsMax: 3_000_000,
		PayloadMin: 30, PayloadMax: 160,
		HotTables: 60, HotProb: 0.5,
	}
}

// TestWorkloadDigest pins every workload the generators build, byte for
// byte: the five built-ins and Real-D- and Real-M-shaped instances at other
// seeds, so the synthesizer's draw sequence is pinned beyond the two seeds
// the built-ins use.
func TestWorkloadDigest(t *testing.T) {
	got := make(map[string]string, len(workloadDigests))
	for _, name := range Names() {
		got[name] = workloadDigest(ByName(name))
	}
	for name, spec := range map[string]SynthSpec{
		"real-d@587002": realDSpec(587002),
		"real-m@260326": realMSpec(260326),
	} {
		w, err := Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = workloadDigest(w)
	}
	if spec := realDSpec(587001); workloadDigest(mustSynthesize(spec)) != got["real-d"] {
		t.Error("realDSpec(587001) no longer builds RealD()")
	}
	if spec := realMSpec(260317); workloadDigest(mustSynthesize(spec)) != got["real-m"] {
		t.Error("realMSpec(260317) no longer builds RealM()")
	}
	for name, want := range workloadDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}
