package workload

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"indextune/internal/schema"
)

func TestBuilderAssemblesQuery(t *testing.T) {
	b := NewBuilder("q")
	r := b.Ref("R")
	s := b.Ref("S")
	b.Eq(r, "a", 0.1).Range(s, "d", 0.3).Join(r, "b", s, "c").Proj(r, "a").Sort(s, "d")
	q := b.Build()
	if q.ID != "q" || len(q.Refs) != 2 || len(q.Joins) != 1 {
		t.Fatalf("query = %+v", q)
	}
	if q.NumFilters() != 2 || q.NumScans() != 2 || q.NumJoins() != 1 {
		t.Fatalf("counts wrong: %d %d %d", q.NumFilters(), q.NumScans(), q.NumJoins())
	}
	// Need must be sorted and deduplicated.
	if got := q.Refs[0].Need; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("R need = %v", got)
	}
	if got := q.Refs[1].Need; len(got) != 2 || got[0] != "c" || got[1] != "d" {
		t.Fatalf("S need = %v", got)
	}
	// Repeated Ref with same alias returns the same ref index.
	if b2 := NewBuilder("x"); b2.Ref("R") != b2.Ref("R") {
		t.Fatal("Ref should be idempotent per alias")
	}
}

func TestLocalSelectivityMultiplies(t *testing.T) {
	r := TableRef{Filters: []Predicate{
		{Column: "a", Op: OpEquality, Selectivity: 0.5},
		{Column: "b", Op: OpRange, Selectivity: 0.2},
	}}
	if got := r.LocalSelectivity(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("LocalSelectivity = %v, want 0.1", got)
	}
}

func TestEffectiveWeightDefaultsToOne(t *testing.T) {
	q := &Query{}
	if q.EffectiveWeight() != 1 {
		t.Fatal("zero weight should default to 1")
	}
	q.Weight = 2.5
	if q.EffectiveWeight() != 2.5 {
		t.Fatal("explicit weight lost")
	}
}

func TestValidateCatchesBadQueries(t *testing.T) {
	db := schema.NewDatabase("d")
	db.AddTable(schema.NewTable("T", 10, schema.Column{Name: "x", NDV: 10, Width: 4}))
	mk := func(mod func(*Query)) *Workload {
		b := NewBuilder("q")
		r := b.Ref("T")
		b.Eq(r, "x", 0.5)
		q := b.Build()
		mod(q)
		return &Workload{Name: "w", DB: db, Queries: []*Query{q}}
	}
	if err := mk(func(q *Query) {}).Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	bad := []func(*Query){
		func(q *Query) { q.Refs[0].Table = "nosuch" },
		func(q *Query) { q.Refs[0].Filters[0].Column = "nosuch" },
		func(q *Query) { q.Refs[0].Filters[0].Selectivity = 0 },
		func(q *Query) { q.Refs[0].Filters[0].Selectivity = 1.5 },
		func(q *Query) { q.Refs[0].Need = append(q.Refs[0].Need, "nosuch") },
		func(q *Query) { q.Joins = append(q.Joins, JoinPred{LeftRef: 0, RightRef: 9}) },
	}
	for i, mod := range bad {
		if err := mk(mod).Validate(); err == nil {
			t.Errorf("bad case %d passed validation", i)
		}
	}
}

// Names holding an index ID's delimiters are refused: with them, key
// ["a,b"] and key ["a","b"] would share the ID t(a,b).
func TestValidateRejectsIDDelimiters(t *testing.T) {
	if a, b := (schema.Index{Table: "t", Key: []string{"a,b"}}), (schema.Index{Table: "t", Key: []string{"a", "b"}}); a.ID() != b.ID() {
		t.Fatalf("IDs %q and %q differ; the delimiter case no longer collides", a.ID(), b.ID())
	}
	mk := func(table, column string) *Workload {
		db := schema.NewDatabase("d")
		db.AddTable(schema.NewTable(table, 10, schema.Column{Name: column, NDV: 10, Width: 4}))
		b := NewBuilder("q")
		b.Proj(b.Ref(table), column)
		return &Workload{Name: "w", DB: db, Queries: []*Query{b.Build()}}
	}
	if err := mk("t", "a").Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	for _, d := range []string{"(", ")", ",", "+"} {
		if err := mk("t"+d, "a").Validate(); err == nil {
			t.Errorf("table name %q passed validation", "t"+d)
		}
		if err := mk("t", "a"+d+"b").Validate(); err == nil {
			t.Errorf("column name %q passed validation", "a"+d+"b")
		}
	}
}

// A repeated column name is found in time linear in the table's width, at
// the daemon's bound on an inline workload's columns (jobs.MaxColumns), and
// the first fault in column order is the one reported.
func TestValidateFindsRepeatedColumns(t *testing.T) {
	const width = 131_072
	mk := func(cols ...schema.Column) *Workload {
		db := schema.NewDatabase("d")
		db.AddTable(schema.NewTable("t", 10, cols...))
		return &Workload{Name: "w", DB: db}
	}
	cols := make([]schema.Column, width)
	for i := range cols {
		cols[i] = schema.Column{Name: "c" + strconv.Itoa(i), NDV: 10, Width: 4}
	}
	if err := mk(cols...).Validate(); err != nil {
		t.Fatalf("distinct names rejected: %v", err)
	}
	cols[width-1].Name = "c70000"
	err := mk(cols...).Validate()
	if err == nil || !strings.Contains(err.Error(), "declares column c70000 twice") {
		t.Fatalf("repeat of c70000 as the last of %d columns: err = %v", width, err)
	}
	err = mk(schema.Column{Name: "a", NDV: 10, Width: 4}, schema.Column{Name: "b", NDV: 0, Width: 4},
		schema.Column{Name: "a", NDV: 10, Width: 4}).Validate()
	if err == nil || !strings.Contains(err.Error(), "column t.b has ndv 0") {
		t.Fatalf("b's ndv precedes a's repeat: err = %v", err)
	}
}

func TestPredOpString(t *testing.T) {
	if OpEquality.String() != "eq" || OpRange.String() != "range" {
		t.Fatal("PredOp strings wrong")
	}
	if PredOp(9).String() == "" {
		t.Fatal("unknown op should still render")
	}
}

// Table-1 targets: generated workloads must match the paper's published
// statistics within tolerance.
func TestGeneratorsMatchTable1(t *testing.T) {
	type target struct {
		queries, tables        int
		joins, filters, scans  float64
		joinTol, filTol, scTol float64
		minGB, maxGB           float64
	}
	targets := map[string]target{
		"tpch":   {22, 8, 2.8, 0.3, 3.7, 1.2, 1.0, 1.2, 5, 20},
		"tpcds":  {99, 24, 7.7, 0.5, 8.8, 2.0, 0.5, 2.0, 5, 25},
		"job":    {33, 21, 7.9, 2.5, 8.9, 1.5, 1.0, 1.5, 1, 15},
		"real-d": {32, 7912, 15.6, 0.2, 17, 3.0, 0.5, 3.0, 50, 2000},
		"real-m": {317, 474, 20.2, 1.5, 21.7, 3.0, 1.0, 3.0, 5, 100},
	}
	for name, tg := range targets {
		w := ByName(name)
		if w == nil {
			t.Fatalf("workload %q missing", name)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
		st := w.ComputeStats()
		if st.NumQueries != tg.queries {
			t.Errorf("%s: queries = %d, want %d", name, st.NumQueries, tg.queries)
		}
		if st.NumTables != tg.tables {
			t.Errorf("%s: tables = %d, want %d", name, st.NumTables, tg.tables)
		}
		if math.Abs(st.AvgJoins-tg.joins) > tg.joinTol {
			t.Errorf("%s: avg joins = %.1f, want %.1f±%.1f", name, st.AvgJoins, tg.joins, tg.joinTol)
		}
		if math.Abs(st.AvgFilters-tg.filters) > tg.filTol {
			t.Errorf("%s: avg filters = %.1f, want %.1f±%.1f", name, st.AvgFilters, tg.filters, tg.filTol)
		}
		if math.Abs(st.AvgScans-tg.scans) > tg.scTol {
			t.Errorf("%s: avg scans = %.1f, want %.1f±%.1f", name, st.AvgScans, tg.scans, tg.scTol)
		}
		gb := float64(st.SizeBytes) / (1 << 30)
		if gb < tg.minGB || gb > tg.maxGB {
			t.Errorf("%s: size = %.1f GB, want in [%v, %v]", name, gb, tg.minGB, tg.maxGB)
		}
	}
}

// Generators must be deterministic: two invocations produce identical
// workloads.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, b := ByName(name), ByName(name)
		if a.Size() != b.Size() {
			t.Fatalf("%s: sizes differ", name)
		}
		for i := range a.Queries {
			qa, qb := a.Queries[i], b.Queries[i]
			if qa.ID != qb.ID || qa.NumScans() != qb.NumScans() || qa.NumJoins() != qb.NumJoins() || qa.NumFilters() != qb.NumFilters() {
				t.Fatalf("%s: query %d differs between generations", name, i)
			}
			for ri := range qa.Refs {
				if qa.Refs[ri].Table != qb.Refs[ri].Table {
					t.Fatalf("%s: query %d ref %d table differs", name, i, ri)
				}
			}
		}
	}
}

func TestByNameVariants(t *testing.T) {
	if ByName("TPC-H") == nil || ByName("tpch") == nil || ByName("Real-D") == nil {
		t.Fatal("ByName should accept display names")
	}
	if ByName("nope") != nil {
		t.Fatal("unknown name should return nil")
	}
	if len(Names()) != 5 {
		t.Fatalf("Names = %v", Names())
	}
}

func TestQueryIDsUnique(t *testing.T) {
	for _, name := range Names() {
		w := ByName(name)
		seen := make(map[string]bool)
		for _, q := range w.Queries {
			if seen[q.ID] {
				t.Fatalf("%s: duplicate query id %q", name, q.ID)
			}
			seen[q.ID] = true
		}
	}
}

func TestSynthesizeRespectsSpec(t *testing.T) {
	w, err := Synthesize(SynthSpec{
		Name: "tiny", Seed: 3, NumTables: 12, NumQueries: 7,
		ScansMean: 3, ScansJitter: 1, FiltersMean: 1,
		RowsMin: 100, RowsMax: 10000, PayloadMin: 10, PayloadMax: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 7 || w.DB.NumTables() != 12 {
		t.Fatalf("synth size = %d queries, %d tables", w.Size(), w.DB.NumTables())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := TPCH()
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != w.Name || back.Size() != w.Size() || back.DB.NumTables() != w.DB.NumTables() {
		t.Fatalf("round trip lost structure: %s %d %d", back.Name, back.Size(), back.DB.NumTables())
	}
	for i, q := range w.Queries {
		b := back.Queries[i]
		if q.ID != b.ID || q.NumScans() != b.NumScans() || q.NumJoins() != b.NumJoins() || q.NumFilters() != b.NumFilters() {
			t.Fatalf("query %d differs after round trip", i)
		}
		for ri := range q.Refs {
			if q.Refs[ri].Table != b.Refs[ri].Table {
				t.Fatalf("query %d ref %d table differs", i, ri)
			}
			for pi := range q.Refs[ri].Filters {
				if q.Refs[ri].Filters[pi] != b.Refs[ri].Filters[pi] {
					t.Fatalf("query %d predicate differs: %+v vs %+v",
						i, q.Refs[ri].Filters[pi], b.Refs[ri].Filters[pi])
				}
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		"",              // empty
		"{",             // truncated
		`{"unknown":1}`, // unknown field
		`{"name":"x","database":{"name":"d","tables":[]},"queries":[{"id":"q","refs":[{"table":"missing"}]}]}`,                                                                                                                      // bad table
		`{"name":"x","database":{"name":"d","tables":[{"name":"t","rows":10,"columns":[{"name":"a","ndv":5,"width":4}]}]},"queries":[{"id":"q","refs":[{"table":"t","filters":[{"column":"a","op":"weird","selectivity":0.5}]}]}]}`, // bad op
	}
	for i, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// smallJSON is a valid two-table workload; each case of
// TestReadJSONRejectsMisreadInputs breaks one field of it.
const smallJSON = `{"name":"w","database":{"name":"d","tables":[
{"name":"t","rows":100,"columns":[{"name":"a","ndv":10,"width":4},{"name":"b","ndv":5,"width":4}]},
{"name":"u","rows":50,"columns":[{"name":"a","ndv":50,"width":4}]}]},
"queries":[{"id":"q1","weight":2,"refs":[{"table":"t","need":["a"],"sort_cols":["b"]},{"table":"u","need":["a"]}],
"joins":[{"left_ref":0,"left_col":"a","right_ref":1,"right_col":"a"}]}]}`

// Inputs the cost model would silently misread must fail ReadJSON with an
// error naming the offending query, table or column.
func TestReadJSONRejectsMisreadInputs(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(smallJSON)); err != nil {
		t.Fatalf("base document: %v", err)
	}
	cases := []struct {
		name, old, new, want string
	}{
		{"unknown sort column", `"sort_cols":["b"]`, `"sort_cols":["zz"]`, "query q1 uses unknown column t.zz"},
		{"unknown left join column", `"left_col":"a"`, `"left_col":"zz"`, "query q1 joins on unknown column t.zz"},
		{"unknown right join column", `"right_col":"a"`, `"right_col":"zz"`, "query q1 joins on unknown column u.zz"},
		{"zero rows", `"rows":100`, `"rows":0`, "table t has 0 rows"},
		{"negative rows", `"rows":50`, `"rows":-5`, "table u has -5 rows"},
		{"zero ndv", `"ndv":10`, `"ndv":0`, "column t.a has ndv 0"},
		{"negative ndv", `"ndv":5,`, `"ndv":-1,`, "column t.b has ndv -1"},
		{"zero width", `"ndv":50,"width":4`, `"ndv":50,"width":0`, "column u.a has width 0"},
		{"negative width", `"ndv":5,"width":4`, `"ndv":5,"width":-4`, "column t.b has width -4"},
		{"negative weight", `"weight":2`, `"weight":-1`, "query q1 has weight -1"},
		{"duplicate table", `{"name":"u","rows":50`, `{"name":"t","rows":50`, "declares table t twice"},
		{"duplicate column", `{"name":"b","ndv":5`, `{"name":"a","ndv":5`, "table t declares column a twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := strings.Replace(smallJSON, tc.old, tc.new, 1)
			if in == smallJSON {
				t.Fatalf("%s does not occur in the base document", tc.old)
			}
			_, err := ReadJSON(strings.NewReader(in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadJSON error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// A zero-width payload adds no column, so the synthesizer's output at the
// bottom of its payload range passes the width check Synthesize validates
// with.
func TestSynthesizeZeroPayload(t *testing.T) {
	for _, payload := range [][2]int{{0, 0}, {0, 3}} {
		if _, err := Synthesize(SynthSpec{
			Name: "edge", Seed: 5, NumTables: 6, NumQueries: 5,
			ScansMean: 3, ScansJitter: 1, FiltersMean: 1,
			RowsMin: 1, RowsMax: 10, PayloadMin: payload[0], PayloadMax: payload[1],
		}); err != nil {
			t.Fatalf("payload %v: %v", payload, err)
		}
	}
}

func TestInstantiateSharesNoMutableState(t *testing.T) {
	w := TPCH()
	multi := Instantiate(w, 2, 1)
	// Mutating an instance's predicate must not change the template.
	orig := w.Queries[0].Refs[0].Filters[0].Selectivity
	multi.Queries[0].Refs[0].Filters[0].Selectivity = 0.12345
	if w.Queries[0].Refs[0].Filters[0].Selectivity != orig {
		t.Fatal("instance aliases the template's predicate slice")
	}
	if err := multi.Validate(); err != nil {
		t.Fatal(err)
	}
}
