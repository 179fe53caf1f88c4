package sqlparse

import (
	"testing"

	"indextune/internal/compress"
	"indextune/internal/workload"
)

// Rendered SQL must parse back to a query with the same template signature
// (tables, joins, predicate columns/classes, sort and needed columns) for
// every query of every built-in workload. This is the parser/renderer
// round-trip property.
func TestRenderParseRoundTrip(t *testing.T) {
	for _, name := range []string{"tpch", "tpcds", "job"} {
		w := workload.ByName(name)
		for _, q := range w.Queries {
			sql := workload.RenderSQL(q)
			back, err := Parse(w.DB, q.ID, sql, nil)
			if err != nil {
				t.Fatalf("%s/%s: rendered SQL does not parse: %v\nSQL: %s", name, q.ID, err, sql)
			}
			if got, want := compress.Signature(back), compress.Signature(q); got != want {
				t.Fatalf("%s/%s: round-trip changed the template\nrendered: %s\n got: %s\nwant: %s",
					name, q.ID, sql, got, want)
			}
		}
	}
}

// Self-joins round-trip through the alias scheme.
func TestRenderParseSelfJoin(t *testing.T) {
	db := exampleDB()
	b := workload.NewBuilder("self")
	r1 := b.RefAs("R", "x")
	r2 := b.RefAs("R", "y")
	b.Join(r1, "b", r2, "a").Proj(r1, "a")
	q := b.Build()
	sql := workload.RenderSQL(q)
	back, err := Parse(db, "self", sql, nil)
	if err != nil {
		t.Fatalf("self-join SQL does not parse: %v\nSQL: %s", err, sql)
	}
	if compress.Signature(back) != compress.Signature(q) {
		t.Fatalf("self-join round-trip changed the template: %s", sql)
	}
}
