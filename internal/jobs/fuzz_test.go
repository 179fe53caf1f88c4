package jobs

import (
	"encoding/json"
	"slices"
	"testing"

	"indextune/internal/algo"
)

// FuzzSpecNormalize decodes arbitrary bytes into a job Spec, as the daemon
// does with a request body, and normalizes it. It must never panic, and a
// spec it accepts must carry a budget within [1, MaxBudget], a K within
// [1, MaxK], a nonzero seed, a worker count within [0, MaxWorkers],
// non-negative epsilons, a registered algorithm and exactly one workload
// source; an inline workload must hold at most MaxQueries queries and
// MaxColumns columns.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"tpch","budget":400,"k":8}`,
		`{"workload":"TPC-H","budget":1,"algorithm":"two-phase","seed":-3,"workers":4}`,
		`{"workload":"job","budget":10,"k":-1,"workers":-2,"derive_epsilon":0.05,"stop_epsilon":0.1}`,
		`{"workload":"real-d","budget":0}`,
		`{"workload":"tpch","budget":5,"workers":99}`,
		`{"workload":"tpch","budget":1000000,"k":1000}`,
		`{"workload":"tpch","budget":1000001}`,
		`{"workload":"tpch","budget":5,"k":1001}`,
		`{"workload":"tpch","budget":5,"stop_epsilon":-1}`,
		`{"workload":"tpch","budget":5,"algorithm":"nope"}`,
		`{"workload":"nope","budget":5}`,
		`{"budget":5}`,
		`{"workload":"tpch","workload_json":{},"budget":5}`,
		`{"workload_json":null,"budget":5}`,
		`{"workload_json":{"name":"w","database":{"name":"d","tables":[{"name":"t","rows":100,"columns":[{"name":"a","ndv":10,"width":4}]}]},"queries":[{"id":"q1","refs":[{"table":"t","need":["a"]}]}]},"budget":5,"tenant":"x"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		inline, err := s.normalize()
		if err != nil {
			return
		}
		if s.Budget <= 0 || s.Budget > MaxBudget || s.K <= 0 || s.K > MaxK || s.Seed == 0 {
			t.Fatalf("accepted budget %d, k %d, seed %d", s.Budget, s.K, s.Seed)
		}
		if s.Workers < 0 || s.Workers > MaxWorkers {
			t.Fatalf("accepted workers %d outside [0, %d]", s.Workers, MaxWorkers)
		}
		if s.DeriveEpsilon < 0 || s.StopEpsilon < 0 {
			t.Fatalf("accepted epsilons %v, %v", s.DeriveEpsilon, s.StopEpsilon)
		}
		if !slices.Contains(algo.Names(), s.Algorithm) {
			t.Fatalf("accepted unregistered algorithm %q", s.Algorithm)
		}
		if (s.Workload != "") == (len(s.WorkloadJSON) > 0) {
			t.Fatalf("accepted workload %q with %d bytes of workload_json", s.Workload, len(s.WorkloadJSON))
		}
		if (inline != nil) != (len(s.WorkloadJSON) > 0) {
			t.Fatalf("inline workload %v for %d bytes of workload_json", inline != nil, len(s.WorkloadJSON))
		}
		if inline == nil {
			return
		}
		cols := 0
		for _, tb := range inline.DB.Tables() {
			cols += len(tb.Columns)
		}
		if len(inline.Queries) > MaxQueries || cols > MaxColumns {
			t.Fatalf("accepted inline workload of %d queries, %d columns", len(inline.Queries), cols)
		}
	})
}
