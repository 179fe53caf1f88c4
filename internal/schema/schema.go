// Package schema models the relational substrate the tuner runs against:
// tables with row counts and per-column statistics, candidate index
// definitions, and index size estimation used by storage constraints.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// PageSize is the assumed on-disk page size, in bytes, used when converting
// row volumes into I/O cost units.
const PageSize = 8192

// Column describes one table column and its statistics.
type Column struct {
	Name  string
	NDV   int64 // number of distinct values
	Width int   // average width in bytes
}

// Table describes a base table with its cardinality and columns.
type Table struct {
	Name    string
	Rows    int64
	Columns []Column

	byName map[string]int
}

// NewTable builds a table, indexing its columns by name.
func NewTable(name string, rows int64, cols ...Column) *Table {
	t := &Table{Name: name, Rows: rows, Columns: cols}
	t.reindex()
	return t
}

func (t *Table) reindex() {
	t.byName = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		t.byName[c.Name] = i
	}
}

// ColumnIndex returns the named column's position in Columns, reporting
// false if the table has no such column.
func (t *Table) ColumnIndex(name string) (int, bool) {
	i, ok := t.byName[name]
	return i, ok
}

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	if i, ok := t.ColumnIndex(name); ok {
		return &t.Columns[i]
	}
	return nil
}

// HasColumn reports whether the table defines the named column.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.ColumnIndex(name)
	return ok
}

// RowWidth returns the total average row width in bytes.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.Width
	}
	if w == 0 {
		w = 8
	}
	return w
}

// Pages returns the number of pages a full scan of the table reads.
func (t *Table) Pages() float64 {
	p := float64(t.Rows) * float64(t.RowWidth()) / PageSize
	if p < 1 {
		return 1
	}
	return p
}

// SizeBytes returns the approximate heap size of the table.
func (t *Table) SizeBytes() int64 {
	return t.Rows * int64(t.RowWidth())
}

// Database is a named collection of tables.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers t, replacing any previous table of the same name.
func (d *Database) AddTable(t *Table) {
	if _, ok := d.tables[t.Name]; !ok {
		d.order = append(d.order, t.Name)
	}
	d.tables[t.Name] = t
}

// Table returns the named table, or nil if absent.
func (d *Database) Table(name string) *Table {
	return d.tables[name]
}

// Tables returns all tables in insertion order.
func (d *Database) Tables() []*Table {
	out := make([]*Table, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.tables[n])
	}
	return out
}

// NumTables returns the number of tables.
func (d *Database) NumTables() int { return len(d.order) }

// SizeBytes returns the approximate total database size.
func (d *Database) SizeBytes() int64 {
	var s int64
	for _, t := range d.tables {
		s += t.SizeBytes()
	}
	return s
}

// Index is a candidate covering index: ordered key columns plus included
// payload columns, as produced by candidate generation (Figure 3 of the
// paper, e.g. [R.a; R.b] = key R.a including R.b).
type Index struct {
	Table   string
	Key     []string
	Include []string
}

// ID returns the canonical identifier of the index. Key order is
// significant; include columns are sorted.
func (ix Index) ID() string {
	inc := append([]string(nil), ix.Include...)
	sort.Strings(inc)
	var b strings.Builder
	b.WriteString(ix.Table)
	b.WriteString("(")
	b.WriteString(strings.Join(ix.Key, ","))
	b.WriteString(")")
	if len(inc) > 0 {
		b.WriteString("+(")
		b.WriteString(strings.Join(inc, ","))
		b.WriteString(")")
	}
	return b.String()
}

// String implements fmt.Stringer.
func (ix Index) String() string { return ix.ID() }

// Columns returns key columns followed by include columns.
func (ix Index) Columns() []string {
	out := make([]string, 0, len(ix.Key)+len(ix.Include))
	out = append(out, ix.Key...)
	out = append(out, ix.Include...)
	return out
}

// Covers reports whether every column in need is stored in the index.
func (ix Index) Covers(need []string) bool {
	for _, n := range need {
		if !ix.HasColumn(n) {
			return false
		}
	}
	return true
}

// HasColumn reports whether the index stores the named column (key or
// include).
func (ix Index) HasColumn(name string) bool {
	for _, k := range ix.Key {
		if k == name {
			return true
		}
	}
	for _, c := range ix.Include {
		if c == name {
			return true
		}
	}
	return false
}

// Validate checks the index against the database schema.
func (ix Index) Validate(db *Database) error {
	t := db.Table(ix.Table)
	if t == nil {
		return fmt.Errorf("schema: index %s references unknown table %q", ix.ID(), ix.Table)
	}
	if len(ix.Key) == 0 {
		return fmt.Errorf("schema: index on %q has no key columns", ix.Table)
	}
	seen := make(map[string]bool)
	for _, c := range ix.Columns() {
		if !t.HasColumn(c) {
			return fmt.Errorf("schema: index %s references unknown column %q", ix.ID(), c)
		}
		if seen[c] {
			return fmt.Errorf("schema: index %s repeats column %q", ix.ID(), c)
		}
		seen[c] = true
	}
	return nil
}

// EntryWidth returns the average index entry width in bytes (all stored
// columns plus a fixed row-locator overhead).
func (ix Index) EntryWidth(db *Database) int {
	const locator = 8
	t := db.Table(ix.Table)
	if t == nil {
		return locator
	}
	w := locator
	for _, c := range ix.Columns() {
		if col := t.Column(c); col != nil {
			w += col.Width
		}
	}
	return w
}

// SizeBytes estimates the on-disk size of the index.
func (ix Index) SizeBytes(db *Database) int64 {
	t := db.Table(ix.Table)
	if t == nil {
		return 0
	}
	return t.Rows * int64(ix.EntryWidth(db))
}

// Pages returns the number of pages a full scan of the index reads.
func (ix Index) Pages(db *Database) float64 {
	p := float64(ix.SizeBytes(db)) / PageSize
	if p < 1 {
		return 1
	}
	return p
}
