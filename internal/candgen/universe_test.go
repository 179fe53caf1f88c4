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

// universeDigests holds, per pinned workload, the SHA-256 of the plain
// candidate universe and of the DTA-merged one (universeDigest's encoding).
// The pinned workloads are the built-ins plus two Real-M-shaped instances
// named by generator seed; 260317 is workload.RealM's own seed, so its pins
// equal real-m's and check that realMShaped reproduces RealM's spec.
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
	"real-m@260317": {
		"c2f1fa73fc45915b4f76331df84d5573f68622ebdc00af380920732d2ddb12fc",
		"44345a7478985d50cb6dbfc0cf048d120374793c462f24d2e3d1d350e66aa664",
	},
	"real-m@260326": {
		"f5deabc6a88d295e6638262fdd974d0171c1bd0c74946a32642ec581463d03ee",
		"bcaa85dd606262f36a7eebb29d123eaf1ab4d16984ccfc8b48488a1208ee22ae",
	},
}

// storedDigests holds, per pinned workload, the SHA-256 of the plain and the
// DTA-merged universe's stored index definitions (storedDigest's encoding).
var storedDigests = map[string][2]string{
	"tpch": {
		"8a2bd9bddf570aef87d5b283f663b1a0e691b1a6cbd95cea15edfea9a4316dc0",
		"ae6d0b74b2aa531c966d8cdc7327d7abc73cb32e1f0e8322bdb494f39f3aac8f",
	},
	"tpcds": {
		"ae10a56cfe032a745d7a2d178b6e1076f86b9361bbc729b320d23bc1e9b44bde",
		"738945979180353bef9de786e8333272dc5a6c914357e63ca691257b025251b8",
	},
	"job": {
		"9f0ff64b098ee35cee44cd1df2fc7fcb3878f5770febcbd40dd9758072cc543b",
		"78f8f4bdd09903a306670917e7392e30adf8e8764bf9d9604d2291ce444f8d43",
	},
	"real-d": {
		"27997e2040949399123af6b935e6a7f8d5b6e0074bec2aff8b29946af380c4f7",
		"726707ffaba204902044c1b2b39440dda3f64e87c8dd26db8e88b9e59f39cbf1",
	},
	"real-m": {
		"b60c16f620150cbaff190bae3808b70ba41e04dc98ebc8ad3c503e5efd93e13e",
		"ea8cf8beb375a3e1c6079ca71e8e3262e375e7968debe2e5a8612c06d97452f5",
	},
	"real-m@260317": {
		"b60c16f620150cbaff190bae3808b70ba41e04dc98ebc8ad3c503e5efd93e13e",
		"ea8cf8beb375a3e1c6079ca71e8e3262e375e7968debe2e5a8612c06d97452f5",
	},
	"real-m@260326": {
		"d529f96c4dd15da06ad6f018ffd239d531ae4c3cda365ea8e267689e6f9d4fef",
		"60eb4d14017dc17ae12324c440c291af07879979521996289727a5cfd334facb",
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

// storedDigest hashes each candidate's index as stored, in ordinal order:
// its table, key columns and include columns in their stored order. The ID
// sorts include columns, so only this digest sees which of several
// same-ID proposals a candidate keeps.
func storedDigest(r *candgen.Result) string {
	h := sha256.New()
	for i, c := range r.Candidates {
		fmt.Fprintf(h, "%d %q %q %q\n", i, c.Index.Table, c.Index.Key, c.Index.Include)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// realMShaped synthesizes a Real-M-shaped instance from generator seed
// seed: workload.RealM's spec with another seed.
func realMShaped(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	w, err := workload.Synthesize(workload.SynthSpec{
		Name: "Real-M", Seed: seed,
		NumTables: 474, NumQueries: 317,
		ScansMean: 21.7, ScansJitter: 4, FiltersMean: 1.5,
		ExtraScan: 0.07, TablePool: 474,
		RowsMin: 1_000, RowsMax: 3_000_000,
		PayloadMin: 30, PayloadMax: 160,
		HotTables: 60, HotProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestUniverseDigest pins the candidate universe of every built-in workload
// and of two Real-M-shaped instances — its order, provenance, per-query
// lists, atomic pairs and stored index definitions — plain and after DTA
// merging, which appends to the generated universe.
func TestUniverseDigest(t *testing.T) {
	names := append(workload.Names(), "real-m@260317", "real-m@260326")
	for _, name := range names {
		w := workload.ByName(name)
		switch name {
		case "real-m@260317":
			w = realMShaped(t, 260317)
		case "real-m@260326":
			w = realMShaped(t, 260326)
		}
		plain := candgen.Generate(w, candgen.Options{})
		merged := dta.WithMergedCandidates(w, candgen.Generate(w, candgen.Options{}))
		for i, r := range []*candgen.Result{plain, merged} {
			if got, want := universeDigest(r), universeDigests[name][i]; got != want {
				t.Errorf("%s universe %d: digest %s, want %s", name, i, got, want)
			}
			if got, want := storedDigest(r), storedDigests[name][i]; got != want {
				t.Errorf("%s universe %d: stored-index digest %s, want %s", name, i, got, want)
			}
		}
	}
}
