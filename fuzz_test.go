package indextune

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSON feeds arbitrary bytes to the workload JSON reader. It must
// never panic, and any workload it accepts must tune to completion within a
// budget of 10 what-if calls.
func FuzzReadJSON(f *testing.F) {
	for _, name := range []string{"tpch", "job"} {
		var buf bytes.Buffer
		if err := Workload(name).WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A small valid workload, and the same workload with each of the
	// fields the reader rejects broken in turn.
	const small = `{"name":"w","database":{"name":"d","tables":[
{"name":"t","rows":100,"columns":[{"name":"a","ndv":10,"width":4},{"name":"b","ndv":5,"width":4}]},
{"name":"u","rows":50,"columns":[{"name":"a","ndv":50,"width":4}]}]},
"queries":[{"id":"q1","weight":2,"refs":[{"table":"t","need":["a"],"sort_cols":["b"]},{"table":"u","need":["a"]}],
"joins":[{"left_ref":0,"left_col":"a","right_ref":1,"right_col":"a"}]}]}`
	f.Add([]byte(small))
	for _, edit := range [][2]string{
		{`"sort_cols":["b"]`, `"sort_cols":["zz"]`},
		{`"left_col":"a"`, `"left_col":"zz"`},
		{`"right_col":"a"`, `"right_col":"zz"`},
		{`"rows":100`, `"rows":0`},
		{`"ndv":10`, `"ndv":0`},
		{`"ndv":50,"width":4`, `"ndv":50,"width":0`},
		{`"weight":2`, `"weight":-1`},
		{`{"name":"u","rows":50`, `{"name":"t","rows":50`},
		{`{"name":"b","ndv":5`, `{"name":"a","ndv":5`},
	} {
		f.Add([]byte(strings.Replace(small, edit[0], edit[1], 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := LoadWorkloadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		res, err := Tune(w, Options{K: 3, Budget: 10, Seed: 1})
		if err != nil {
			t.Fatalf("accepted workload fails to tune: %v", err)
		}
		if res.WhatIfCalls > 10 {
			t.Fatalf("tuning spent %d what-if calls, budget 10", res.WhatIfCalls)
		}
	})
}
