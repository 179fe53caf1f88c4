package schema

import (
	"strings"
	"testing"
)

func testDB() *Database {
	db := NewDatabase("test")
	db.AddTable(NewTable("r", 1000,
		Column{Name: "a", NDV: 100, Width: 8},
		Column{Name: "b", NDV: 1000, Width: 8},
		Column{Name: "pay", NDV: 1000, Width: 84},
	))
	db.AddTable(NewTable("s", 10,
		Column{Name: "c", NDV: 10, Width: 4},
	))
	return db
}

func TestTableBasics(t *testing.T) {
	db := testDB()
	r := db.Table("r")
	if r == nil {
		t.Fatal("table r missing")
	}
	if !r.HasColumn("a") || r.HasColumn("zz") {
		t.Fatal("HasColumn wrong")
	}
	if c := r.Column("b"); c == nil || c.NDV != 1000 {
		t.Fatalf("Column(b) = %+v", r.Column("b"))
	}
	if i, ok := r.ColumnIndex("pay"); !ok || i != 2 {
		t.Fatalf("ColumnIndex(pay) = %d, %v, want 2, true", i, ok)
	}
	if _, ok := r.ColumnIndex("zz"); ok {
		t.Fatal("ColumnIndex(zz) found an absent column")
	}
	if got, want := r.RowWidth(), 100; got != want {
		t.Fatalf("RowWidth = %d, want %d", got, want)
	}
	if got, want := r.SizeBytes(), int64(100*1000); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	// 1000 rows * 100 B / 8192 < 13 pages but at least computed value.
	if got := r.Pages(); got < 12 || got > 13 {
		t.Fatalf("Pages = %v, want ≈12.2", got)
	}
	// Tiny tables round up to one page.
	if got := db.Table("s").Pages(); got != 1 {
		t.Fatalf("tiny table Pages = %v, want 1", got)
	}
}

func TestDatabaseOrderAndSize(t *testing.T) {
	db := testDB()
	tabs := db.Tables()
	if len(tabs) != 2 || tabs[0].Name != "r" || tabs[1].Name != "s" {
		t.Fatalf("Tables order wrong: %v", tabs)
	}
	if db.NumTables() != 2 {
		t.Fatalf("NumTables = %d", db.NumTables())
	}
	want := tabs[0].SizeBytes() + tabs[1].SizeBytes()
	if db.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", db.SizeBytes(), want)
	}
	// Replacing a table keeps one entry.
	db.AddTable(NewTable("r", 5, Column{Name: "a", NDV: 5, Width: 4}))
	if db.NumTables() != 2 || db.Table("r").Rows != 5 {
		t.Fatal("AddTable replace failed")
	}
}

func TestIndexIDCanonical(t *testing.T) {
	a := Index{Table: "r", Key: []string{"a"}, Include: []string{"b", "pay"}}
	b := Index{Table: "r", Key: []string{"a"}, Include: []string{"pay", "b"}}
	if a.ID() != b.ID() {
		t.Fatalf("include order must not matter: %q vs %q", a.ID(), b.ID())
	}
	c := Index{Table: "r", Key: []string{"a", "b"}}
	d := Index{Table: "r", Key: []string{"b", "a"}}
	if c.ID() == d.ID() {
		t.Fatal("key order must matter")
	}
	if !strings.Contains(a.String(), "r(a)") {
		t.Fatalf("String = %q", a.String())
	}
}

func TestIndexCoversAndColumns(t *testing.T) {
	ix := Index{Table: "r", Key: []string{"a"}, Include: []string{"b"}}
	if !ix.Covers([]string{"a", "b"}) {
		t.Fatal("should cover key+include")
	}
	if ix.Covers([]string{"a", "pay"}) {
		t.Fatal("should not cover pay")
	}
	if !ix.Covers(nil) {
		t.Fatal("empty need is always covered")
	}
	cols := ix.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns = %v", cols)
	}
}

func TestIndexValidate(t *testing.T) {
	db := testDB()
	good := Index{Table: "r", Key: []string{"a"}, Include: []string{"b"}}
	if err := good.Validate(db); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}
	cases := []Index{
		{Table: "nope", Key: []string{"a"}},                           // unknown table
		{Table: "r"},                                                  // no key
		{Table: "r", Key: []string{"zz"}},                             // unknown column
		{Table: "r", Key: []string{"a"}, Include: []string{"a"}},      // repeated column
		{Table: "r", Key: []string{"a", "a"}},                         // repeated key
		{Table: "r", Key: []string{"a"}, Include: []string{"b", "b"}}, // repeated include
	}
	for i, ix := range cases {
		if err := ix.Validate(db); err == nil {
			t.Errorf("case %d (%v): expected error", i, ix)
		}
	}
}

func TestIndexSize(t *testing.T) {
	db := testDB()
	ix := Index{Table: "r", Key: []string{"a"}, Include: []string{"b"}}
	// 8 (locator) + 8 + 8 = 24 bytes per entry, 1000 rows.
	if got, want := ix.EntryWidth(db), 24; got != want {
		t.Fatalf("EntryWidth = %d, want %d", got, want)
	}
	if got, want := ix.SizeBytes(db), int64(24000); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	if ix.Pages(db) < 1 {
		t.Fatal("Pages must be at least 1")
	}
	// Covering index narrower than the heap ⇒ fewer pages.
	if ix.Pages(db) >= db.Table("r").Pages() {
		t.Fatal("narrow index should have fewer pages than the wide heap")
	}
	missing := Index{Table: "nope", Key: []string{"x"}}
	if missing.SizeBytes(db) != 0 {
		t.Fatal("missing table should size to 0")
	}
}
