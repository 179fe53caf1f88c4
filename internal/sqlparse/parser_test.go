package sqlparse

import (
	"strings"
	"testing"

	"indextune/internal/schema"
	"indextune/internal/stats"
	"indextune/internal/workload"
)

func exampleDB() *schema.Database {
	db := schema.NewDatabase("ex")
	db.AddTable(schema.NewTable("R", 1000,
		schema.Column{Name: "a", NDV: 100, Width: 8},
		schema.Column{Name: "b", NDV: 500, Width: 8},
	))
	db.AddTable(schema.NewTable("S", 2000,
		schema.Column{Name: "c", NDV: 1000, Width: 8},
		schema.Column{Name: "d", NDV: 50, Width: 8},
	))
	return db
}

func mustParse(t *testing.T, sql string) *workload.Query {
	t.Helper()
	q, err := Parse(exampleDB(), "q", sql, nil)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return q
}

func TestParseFigure3Example(t *testing.T) {
	// Q1 from the paper's Figure 3.
	q := mustParse(t, "SELECT a, d FROM R, S WHERE R.b = S.c AND R.a = 5 AND S.d > 200")
	if len(q.Refs) != 2 {
		t.Fatalf("refs = %d, want 2", len(q.Refs))
	}
	r, s := q.Refs[0], q.Refs[1]
	if r.Table != "R" || s.Table != "S" {
		t.Fatalf("tables = %s,%s", r.Table, s.Table)
	}
	if len(q.Joins) != 1 || q.Joins[0].LeftCol != "b" || q.Joins[0].RightCol != "c" {
		t.Fatalf("joins = %+v", q.Joins)
	}
	if len(r.Filters) != 1 || r.Filters[0].Column != "a" || r.Filters[0].Op != workload.OpEquality {
		t.Fatalf("R filters = %+v", r.Filters)
	}
	// Equality selectivity is 1/NDV(a) = 1/100.
	if got := r.Filters[0].Selectivity; got != 0.01 {
		t.Fatalf("eq selectivity = %v, want 0.01", got)
	}
	if len(s.Filters) != 1 || s.Filters[0].Op != workload.OpRange {
		t.Fatalf("S filters = %+v", s.Filters)
	}
	// Need sets: R needs a (proj+filter) and b (join); S needs c (join) and
	// d (proj+filter).
	if strings.Join(r.Need, ",") != "a,b" {
		t.Fatalf("R need = %v", r.Need)
	}
	if strings.Join(s.Need, ",") != "c,d" {
		t.Fatalf("S need = %v", s.Need)
	}
}

func TestParseUnqualifiedColumnsResolve(t *testing.T) {
	q := mustParse(t, "SELECT a FROM R WHERE a = 1 AND b > 2")
	if len(q.Refs) != 1 || q.NumFilters() != 2 {
		t.Fatalf("got %d refs, %d filters", len(q.Refs), q.NumFilters())
	}
}

func TestParseJoinOnSyntax(t *testing.T) {
	q := mustParse(t, "SELECT R.a FROM R INNER JOIN S ON R.b = S.c WHERE S.d = 7")
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %+v", q.Joins)
	}
	q2 := mustParse(t, "SELECT R.a FROM R JOIN S ON R.b = S.c")
	if len(q2.Joins) != 1 {
		t.Fatalf("bare JOIN failed: %+v", q2.Joins)
	}
}

func TestParseAliases(t *testing.T) {
	q := mustParse(t, "SELECT r1.a FROM R r1, R AS r2 WHERE r1.b = r2.a")
	if len(q.Refs) != 2 || q.Refs[0].Table != "R" || q.Refs[1].Table != "R" {
		t.Fatalf("refs = %+v", q.Refs)
	}
	if len(q.Joins) != 1 || q.Joins[0].LeftRef != 0 || q.Joins[0].RightRef != 1 {
		t.Fatalf("self-join = %+v", q.Joins)
	}
}

func TestParseGroupOrderBy(t *testing.T) {
	q := mustParse(t, "SELECT a, SUM(b) FROM R GROUP BY a ORDER BY a DESC")
	if len(q.Refs[0].SortCols) != 1 || q.Refs[0].SortCols[0] != "a" {
		t.Fatalf("sort cols = %v", q.Refs[0].SortCols)
	}
	// SUM(b) contributes b to the needed columns.
	if strings.Join(q.Refs[0].Need, ",") != "a,b" {
		t.Fatalf("need = %v", q.Refs[0].Need)
	}
}

func TestParseAggregates(t *testing.T) {
	q := mustParse(t, "SELECT COUNT(*), MIN(d) FROM S")
	if strings.Join(q.Refs[0].Need, ",") != "d" {
		t.Fatalf("need = %v", q.Refs[0].Need)
	}
}

func TestParseSelectStar(t *testing.T) {
	q := mustParse(t, "SELECT * FROM R")
	if strings.Join(q.Refs[0].Need, ",") != "a,b" {
		t.Fatalf("need = %v", q.Refs[0].Need)
	}
}

func TestParseBetween(t *testing.T) {
	q := mustParse(t, "SELECT a FROM R WHERE b BETWEEN 1 AND 10")
	if q.NumFilters() != 1 || q.Refs[0].Filters[0].Op != workload.OpRange {
		t.Fatalf("filters = %+v", q.Refs[0].Filters)
	}
}

func TestParseStringAndNegativeLiterals(t *testing.T) {
	mustParse(t, "SELECT a FROM R WHERE a = 'hello world'")
	mustParse(t, "SELECT a FROM R WHERE b > -5")
}

func TestParseTrailingSemicolonAndCase(t *testing.T) {
	mustParse(t, "select a from R where a = 1;")
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                      // empty
		"SELECT a",                              // no FROM
		"SELECT a FROM nosuch",                  // unknown table
		"SELECT zz FROM R",                      // unknown column
		"SELECT a FROM R WHERE a ~ 3",           // bad operator char
		"SELECT a FROM R WHERE a LIKE 'x'",      // unsupported operator
		"SELECT a FROM R extra garbage words",   // trailing input
		"SELECT a FROM R, R",                    // duplicate alias
		"SELECT a FROM R WHERE a = 'unclosed",   // unterminated string
		"SELECT c FROM R, S WHERE R.b < S.c",    // non-equi join
		"SELECT a FROM R JOIN S ON R.b = S.zzz", // unknown join col
	}
	for _, sql := range cases {
		if _, err := Parse(exampleDB(), "q", sql, nil); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

func TestParseAmbiguousColumn(t *testing.T) {
	// Add tables sharing a column name.
	db := exampleDB()
	db.AddTable(schema.NewTable("T", 10, schema.Column{Name: "a", NDV: 10, Width: 4}))
	if _, err := Parse(db, "q", "SELECT a FROM R, T", nil); err == nil {
		t.Fatal("ambiguous column should error")
	}
}

func TestParsedQueryValidates(t *testing.T) {
	db := exampleDB()
	q := mustParse(t, "SELECT a, d FROM R, S WHERE R.b = S.c AND R.a = 5 AND S.d > 200")
	w := &workload.Workload{Name: "t", DB: db, Queries: []*workload.Query{q}}
	if err := w.Validate(); err != nil {
		t.Fatalf("parsed query fails workload validation: %v", err)
	}
}

func TestHistogramDrivenSelectivity(t *testing.T) {
	db := exampleDB()
	var cat stats.Catalog
	cat.Put("R", "b", &stats.Histogram{Buckets: []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, Rows: 1000, NDV: 500})

	q, err := Parse(db, "q", "SELECT a FROM R WHERE b > 75", &cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Refs[0].Filters[0].Selectivity; got < 0.2 || got > 0.3 {
		t.Fatalf("histogram range selectivity = %v, want ≈0.25", got)
	}

	q, err = Parse(db, "q", "SELECT a FROM R WHERE b BETWEEN 10 AND 30", &cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Refs[0].Filters[0].Selectivity; got < 0.15 || got > 0.25 {
		t.Fatalf("histogram between selectivity = %v, want ≈0.2", got)
	}

	q, err = Parse(db, "q", "SELECT a FROM R WHERE b = 50", &cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Refs[0].Filters[0].Selectivity; got > 0.01 {
		t.Fatalf("histogram eq selectivity = %v, want ≈1/500", got)
	}

	// Negative literal below the histogram range: tiny but positive.
	q, err = Parse(db, "q", "SELECT a FROM R WHERE b < -5", &cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Refs[0].Filters[0].Selectivity; got <= 0 || got > 0.01 {
		t.Fatalf("out-of-range selectivity = %v", got)
	}

	// String literals bypass histograms and keep the NDV default.
	q, err = Parse(db, "q", "SELECT a FROM R WHERE a = 'x'", &cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Refs[0].Filters[0].Selectivity; got != 0.01 {
		t.Fatalf("string eq selectivity = %v, want 1/NDV = 0.01", got)
	}
}
