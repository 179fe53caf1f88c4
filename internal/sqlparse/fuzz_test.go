package sqlparse

import (
	"testing"

	"indextune/internal/compress"
	"indextune/internal/stats"
	"indextune/internal/workload"
)

// FuzzParse feeds arbitrary SQL to the parser over a built-in schema, with
// and without histograms. Parse must never panic; a query it accepts must
// validate against the schema, and rendering it must parse back to the same
// template signature.
func FuzzParse(f *testing.F) {
	names := []string{"tpch", "tpcds", "job"}
	dbs := make([]*workload.Workload, len(names))
	cats := make([]*stats.Catalog, len(names))
	for i, name := range names {
		w := workload.ByName(name)
		dbs[i] = w
		// An even histogram on every column, so literal predicates take the
		// histogram-driven selectivity path.
		cats[i] = &stats.Catalog{}
		for _, t := range w.DB.Tables() {
			for _, c := range t.Columns {
				cats[i].Put(t.Name, c.Name, &stats.Histogram{Min: 0, Buckets: []float64{25, 50, 75, 100}, Rows: t.Rows, NDV: c.NDV})
			}
		}
		for _, q := range w.Queries {
			f.Add(uint8(i), false, workload.RenderSQL(q))
		}
	}
	f.Add(uint8(0), true, "SELECT l_quantity FROM lineitem WHERE l_quantity BETWEEN 10 AND 30 ORDER BY l_quantity")
	f.Fuzz(func(t *testing.T, which uint8, withStats bool, sql string) {
		i := int(which) % len(names)
		w := dbs[i]
		var cat *stats.Catalog
		if withStats {
			cat = cats[i]
		}
		q, err := Parse(w.DB, "fuzz", sql, cat)
		if err != nil {
			return
		}
		one := &workload.Workload{Name: "fuzz", DB: w.DB, Queries: []*workload.Query{q}}
		if err := one.Validate(); err != nil {
			t.Fatalf("parsed query does not validate: %v\nSQL: %s", err, sql)
		}
		rendered := workload.RenderSQL(q)
		back, err := Parse(w.DB, "fuzz", rendered, cat)
		if err != nil {
			t.Fatalf("rendered SQL does not parse: %v\nSQL: %s\nrendered: %s", err, sql, rendered)
		}
		if got, want := compress.Signature(back), compress.Signature(q); got != want {
			t.Fatalf("round trip changed the template\nSQL: %s\nrendered: %s\n got: %s\nwant: %s", sql, rendered, got, want)
		}
	})
}
