// Package workload defines the logical query and workload representation the
// tuner consumes, plus seeded generators reproducing the five workloads of
// the paper's Table 1 (JOB, TPC-H, TPC-DS, Real-D, Real-M).
package workload

import (
	"fmt"

	"indextune/internal/schema"
)

// Predicate is a single-table filter predicate extracted from a query's
// WHERE clause.
type Predicate struct {
	Column      string
	Op          PredOp
	Selectivity float64 // fraction of the table's rows satisfying the predicate
}

// PredOp classifies a predicate for candidate-index purposes.
type PredOp int

// Predicate operator classes.
const (
	OpEquality PredOp = iota // col = const
	OpRange                  // col > / < / BETWEEN const
)

// String implements fmt.Stringer.
func (op PredOp) String() string {
	switch op {
	case OpEquality:
		return "eq"
	case OpRange:
		return "range"
	default:
		return fmt.Sprintf("PredOp(%d)", int(op))
	}
}

// TableRef is one access to a base table within a query, carrying the
// predicates local to that table and the columns the query needs from it.
type TableRef struct {
	Table    string
	Filters  []Predicate
	JoinCols []string // columns participating in join predicates
	Need     []string // all columns the query reads from this table
	SortCols []string // leading group-by/order-by columns on this table
}

// LocalSelectivity returns the combined selectivity of the filters on this
// table reference (independence assumption).
func (r *TableRef) LocalSelectivity() float64 {
	s := 1.0
	for _, p := range r.Filters {
		s *= p.Selectivity
	}
	return s
}

// JoinPred is an equi-join predicate between two table references of a
// query, identified by their positions in Query.Refs.
type JoinPred struct {
	LeftRef  int
	LeftCol  string
	RightRef int
	RightCol string
}

// Query is the tuner's logical view of a SQL statement.
type Query struct {
	ID     string
	Weight float64 // execution frequency weight; 0 is treated as 1
	Refs   []TableRef
	Joins  []JoinPred
	SQL    string // original text when parsed from SQL; may be empty
}

// EffectiveWeight returns the query weight, defaulting to 1.
func (q *Query) EffectiveWeight() float64 {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// NumJoins returns the number of join predicates.
func (q *Query) NumJoins() int { return len(q.Joins) }

// NumFilters returns the number of filter predicates across all refs.
func (q *Query) NumFilters() int {
	n := 0
	for _, r := range q.Refs {
		n += len(r.Filters)
	}
	return n
}

// NumScans returns the number of base-table accesses.
func (q *Query) NumScans() int { return len(q.Refs) }

// Ref returns the i-th table reference.
func (q *Query) Ref(i int) *TableRef { return &q.Refs[i] }

// Workload is an ordered set of queries over one database.
type Workload struct {
	Name    string
	DB      *schema.Database
	Queries []*Query
}

// Size returns the number of queries.
func (w *Workload) Size() int { return len(w.Queries) }

// Stats summarises a workload in the shape of the paper's Table 1.
type Stats struct {
	Name       string
	SizeBytes  int64
	NumQueries int
	NumTables  int
	AvgJoins   float64
	AvgFilters float64
	AvgScans   float64
}

// ComputeStats derives Table 1-style statistics for the workload.
func (w *Workload) ComputeStats() Stats {
	st := Stats{
		Name:       w.Name,
		SizeBytes:  w.DB.SizeBytes(),
		NumQueries: len(w.Queries),
		NumTables:  w.DB.NumTables(),
	}
	if len(w.Queries) == 0 {
		return st
	}
	var joins, filters, scans int
	for _, q := range w.Queries {
		joins += q.NumJoins()
		filters += q.NumFilters()
		scans += q.NumScans()
	}
	n := float64(len(w.Queries))
	st.AvgJoins = float64(joins) / n
	st.AvgFilters = float64(filters) / n
	st.AvgScans = float64(scans) / n
	return st
}

// Validate checks the database's statistics and every query against the
// schema. The cost model reads rows, NDV and widths as positive counts, and
// every column a query names must exist: a missing one would silently cost
// as a default instead of failing.
func (w *Workload) Validate() error {
	for _, t := range w.DB.Tables() {
		if t.Rows <= 0 {
			return fmt.Errorf("workload %s: table %s has %d rows, want > 0", w.Name, t.Name, t.Rows)
		}
		seen := make(map[string]bool, len(t.Columns))
		for _, c := range t.Columns {
			switch {
			case seen[c.Name]:
				return fmt.Errorf("workload %s: table %s declares column %s twice", w.Name, t.Name, c.Name)
			case c.NDV <= 0:
				return fmt.Errorf("workload %s: column %s.%s has ndv %d, want > 0", w.Name, t.Name, c.Name, c.NDV)
			case c.Width <= 0:
				return fmt.Errorf("workload %s: column %s.%s has width %d, want > 0", w.Name, t.Name, c.Name, c.Width)
			}
			seen[c.Name] = true
		}
	}
	for _, q := range w.Queries {
		if !(q.Weight >= 0) {
			return fmt.Errorf("workload %s: query %s has weight %g, want >= 0", w.Name, q.ID, q.Weight)
		}
		for ri := range q.Refs {
			r := &q.Refs[ri]
			t := w.DB.Table(r.Table)
			if t == nil {
				return fmt.Errorf("workload %s: query %s references unknown table %q", w.Name, q.ID, r.Table)
			}
			for _, p := range r.Filters {
				if !t.HasColumn(p.Column) {
					return fmt.Errorf("workload %s: query %s filters unknown column %s.%s", w.Name, q.ID, r.Table, p.Column)
				}
				if !(p.Selectivity > 0 && p.Selectivity <= 1) {
					return fmt.Errorf("workload %s: query %s predicate on %s.%s has selectivity %g outside (0,1]",
						w.Name, q.ID, r.Table, p.Column, p.Selectivity)
				}
			}
			for _, c := range append(append(append([]string{}, r.JoinCols...), r.Need...), r.SortCols...) {
				if !t.HasColumn(c) {
					return fmt.Errorf("workload %s: query %s uses unknown column %s.%s", w.Name, q.ID, r.Table, c)
				}
			}
		}
		for _, j := range q.Joins {
			if j.LeftRef < 0 || j.LeftRef >= len(q.Refs) || j.RightRef < 0 || j.RightRef >= len(q.Refs) {
				return fmt.Errorf("workload %s: query %s join references out-of-range table ref", w.Name, q.ID)
			}
			for _, side := range []struct {
				ref int
				col string
			}{{j.LeftRef, j.LeftCol}, {j.RightRef, j.RightCol}} {
				if t := q.Refs[side.ref].Table; !w.DB.Table(t).HasColumn(side.col) {
					return fmt.Errorf("workload %s: query %s joins on unknown column %s.%s", w.Name, q.ID, t, side.col)
				}
			}
		}
	}
	return nil
}
