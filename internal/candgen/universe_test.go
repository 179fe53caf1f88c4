package candgen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/dta"
	"indextune/internal/workload"
)

// universeDigests holds, per built-in workload, the SHA-256 of the plain
// candidate universe and of the DTA-merged one (universeDigest's encoding).
var universeDigests = map[string][2]string{
	"tpch": {
		"3630f7a0e706429f879b61e0dcef54dc5f70322389ae3fcd396e0f75d2fb861b",
		"e514fbb48689af218abe654487a29ee4fb6249ae7c30e4b03b5a9b5677944072",
	},
	"tpcds": {
		"50c748d1df5d35900fa5e98dbceabb9d921772714214b81cf3afdec94ec19f41",
		"ef2c48a98a19daacaac7dd29dd82a06c9f75bd638edc32ffdba2d27847bcd390",
	},
	"job": {
		"00a5f39ee8e72a6382cbc97d16889816fa8ba5369417bff264d3afa1d3ff5e0c",
		"2382b4b0fc27dd65edf10f85f730d0df8ac1f6ddbddcdc8102e8e84210d46642",
	},
	"real-d": {
		"664beca988e62df66a2a854b898e7528c3bd7c1de15c77da216f78095c673e1f",
		"3bd9206d70ca330fd990f1fecfe59f65bf1e0b5f54b3dd99f00a4a02d6c05644",
	},
	"real-m": {
		"c2f1fa73fc45915b4f76331df84d5573f68622ebdc00af380920732d2ddb12fc",
		"44345a7478985d50cb6dbfc0cf048d120374793c462f24d2e3d1d350e66aa664",
	},
}

// universeDigest hashes a generation result: one line per candidate in
// ordinal order (ordinal, ID, table rows, queries), then one line per
// query's PerQuery list, then the atomic pairs.
func universeDigest(r *candgen.Result) string {
	h := sha256.New()
	for i, c := range r.Candidates {
		fmt.Fprintln(h, i, c.Ordinal, c.Index.ID(), c.TableRows, c.Queries)
	}
	for qi, per := range r.PerQuery {
		fmt.Fprintln(h, "q", qi, per)
	}
	fmt.Fprintln(h, "pairs", r.AtomicPairs)
	return hex.EncodeToString(h.Sum(nil))
}

// TestUniverseDigest pins every built-in workload's candidate universe —
// its order, provenance, per-query lists and atomic pairs — plain and after
// DTA merging, which appends to the generated universe.
func TestUniverseDigest(t *testing.T) {
	for _, name := range workload.Names() {
		w := workload.ByName(name)
		plain := candgen.Generate(w, candgen.Options{})
		merged := dta.WithMergedCandidates(w, candgen.Generate(w, candgen.Options{}))
		for i, r := range []*candgen.Result{plain, merged} {
			if got, want := universeDigest(r), universeDigests[name][i]; got != want {
				t.Errorf("%s universe %d: digest %s, want %s", name, i, got, want)
			}
		}
	}
}
