package workload

import (
	"fmt"
	"slices"
)

// Builder assembles a Query incrementally. It is used both by the workload
// generators and by tests that need hand-crafted queries.
type Builder struct {
	q      *Query
	refIdx map[string]int
	need   [][]string // per ref, every needed column as added; Build sorts and dedupes
}

// NewBuilder starts a query with the given identifier.
func NewBuilder(id string) *Builder {
	return &Builder{
		q:      &Query{ID: id},
		refIdx: make(map[string]int),
	}
}

// Ref adds (or returns) the table reference for the named table. Repeated
// references to the same table receive distinct refs only when a distinct
// alias is used via RefAs.
func (b *Builder) Ref(table string) int {
	return b.RefAs(table, table)
}

// RefAs adds a table reference under an explicit alias.
func (b *Builder) RefAs(table, alias string) int {
	if i, ok := b.refIdx[alias]; ok {
		return i
	}
	i := b.newRef(table)
	b.refIdx[alias] = i
	return i
}

// newRef adds a table reference that no alias returns again.
func (b *Builder) newRef(table string) int {
	b.q.Refs = append(b.q.Refs, TableRef{Table: table})
	b.need = append(b.need, nil)
	return len(b.q.Refs) - 1
}

// Eq adds an equality filter on ref's column with the given selectivity.
func (b *Builder) Eq(ref int, col string, sel float64) *Builder {
	return b.filter(ref, col, OpEquality, sel)
}

// Range adds a range filter on ref's column with the given selectivity.
func (b *Builder) Range(ref int, col string, sel float64) *Builder {
	return b.filter(ref, col, OpRange, sel)
}

func (b *Builder) filter(ref int, col string, op PredOp, sel float64) *Builder {
	b.q.Refs[ref].Filters = append(b.q.Refs[ref].Filters, Predicate{Column: col, Op: op, Selectivity: sel})
	b.need[ref] = append(b.need[ref], col)
	return b
}

// Join adds an equi-join predicate between two refs.
func (b *Builder) Join(l int, lcol string, r int, rcol string) *Builder {
	b.q.Joins = append(b.q.Joins, JoinPred{LeftRef: l, LeftCol: lcol, RightRef: r, RightCol: rcol})
	b.q.Refs[l].JoinCols = appendUniq(b.q.Refs[l].JoinCols, lcol)
	b.q.Refs[r].JoinCols = appendUniq(b.q.Refs[r].JoinCols, rcol)
	b.need[l] = append(b.need[l], lcol)
	b.need[r] = append(b.need[r], rcol)
	return b
}

// Proj marks columns of ref as projected (needed) by the query.
func (b *Builder) Proj(ref int, cols ...string) *Builder {
	b.need[ref] = append(b.need[ref], cols...)
	return b
}

// Sort sets the leading sort (group-by/order-by) columns of ref.
func (b *Builder) Sort(ref int, cols ...string) *Builder {
	for _, c := range cols {
		b.q.Refs[ref].SortCols = appendUniq(b.q.Refs[ref].SortCols, c)
	}
	b.need[ref] = append(b.need[ref], cols...)
	return b
}

// Weight sets the query's frequency weight.
func (b *Builder) Weight(w float64) *Builder {
	b.q.Weight = w
	return b
}

// Build finalizes the query, freezing the per-ref Need column sets.
func (b *Builder) Build() *Query {
	for i, cols := range b.need {
		slices.Sort(cols)
		if cols = slices.Compact(cols); cols == nil {
			cols = []string{}
		}
		b.need[i] = cols
		b.q.Refs[i].Need = cols
	}
	return b.q
}

func appendUniq(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// MustValidate panics if the workload fails validation; generators call it
// so construction bugs surface immediately.
func (w *Workload) MustValidate() *Workload {
	if err := w.Validate(); err != nil {
		// invariant: only the built-in/spec-validated generators call this;
		// user-assembled workloads go through Validate, which returns errors.
		panic(fmt.Sprintf("workload: invalid generated workload: %v", err))
	}
	return w
}
