package analysis

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden tests load each testdata package with the real loader and check
// the analyzer's diagnostics against "// want \"substring\"" comments: every
// want must be matched by a diagnostic on its line, and every diagnostic must
// be matched by a want. Clean packages carry no wants, so they assert zero
// findings.

var wantRe = regexp.MustCompile(`want ("(?:[^"\\]|\\.)*")`)

type wantSpec struct {
	file    string
	line    int
	substr  string
	matched bool
}

// collectWants extracts the want expectations from a package's comments.
func collectWants(t *testing.T, pkg *Package) []*wantSpec {
	t.Helper()
	var wants []*wantSpec
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				substr, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("bad want literal %s: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &wantSpec{file: pos.Filename, line: pos.Line, substr: substr})
			}
		}
	}
	return wants
}

// loadTestdata loads the package in testdata/src/dir.
func loadTestdata(t *testing.T, l *Loader, dir string) *Package {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{abs})
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loading %s returned %d packages, want 1", dir, len(pkgs))
	}
	return pkgs[0]
}

func runGolden(t *testing.T, l *Loader, dir string, as ...*Analyzer) {
	t.Helper()
	checkWants(t, []*Package{loadTestdata(t, l, dir)}, as...)
}

// checkWants runs the analyzers over pkgs together and matches the findings
// against every package's want comments.
func checkWants(t *testing.T, pkgs []*Package, as ...*Analyzer) {
	t.Helper()
	var wants []*wantSpec
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	diags := Run(pkgs, as)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestGolden(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"bad/internal/greedy", NewBudgetGuard(nil)}, // with chargepath: see below
		{"clean/internal/greedy", NewBudgetGuard(nil)},
		{"tracebad/internal/trace", NewBudgetGuard(nil)},
		{"traceclean/internal/trace", NewBudgetGuard(nil)},
		{"derivebad/internal/core", NewBudgetGuard(nil)},
		{"deriveclean/internal/core", NewBudgetGuard(nil)},
		{"stopbad/internal/core", NewBudgetGuard(nil)},
		{"stopclean/internal/core", NewBudgetGuard(nil)},
		{"determinism/bad", Determinism()},
		{"determinism/clean", Determinism()},
		{"atomicfields/bad", AtomicFields()},
		{"atomicfields/clean", AtomicFields()},
		{"panicguard/bad", PanicGuard()},
		{"panicguard/clean", PanicGuard()},
		{"reservepair/bad", ReservePair()},
		{"reservepair/clean", ReservePair()},
		{"chargepath/bad/internal/core", ChargePath()},
		{"chargepath/clean/internal/core", ChargePath()},
		{"lockguard/bad", LockGuard()},
		{"lockguard/clean", LockGuard()},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.dir, "/", "_")+"_"+tc.analyzer.Name, func(t *testing.T) {
			as := []*Analyzer{tc.analyzer}
			if tc.dir == "bad/internal/greedy" {
				// budgetguard reports the import, chargepath the direct
				// optimizer calls.
				as = append(as, ChargePath())
			}
			runGolden(t, l, tc.dir, as...)
		})
	}
}

// TestGoldenUnreached loads each unreached fixture whole, naming the
// fixture's own root package as the API root: bad's wants cover an unreached
// function, method, and exported function of an internal package, plus a
// function only its _test.go calls; clean exercises every root kind. Loading
// a fixture package without its root reports nothing.
func TestGoldenUnreached(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	const fixtures = "indextune/internal/analysis/testdata/src/unreached/"
	for _, dir := range []string{"bad", "clean"} {
		abs, err := filepath.Abs(filepath.Join("testdata", "src", "unreached", dir))
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.Load([]string{abs + "/..."})
		if err != nil {
			t.Fatal(err)
		}
		a := Unreached(fixtures + dir)
		t.Run(dir, func(t *testing.T) { checkWants(t, pkgs, a) })
		if n := len(Run(pkgs, []*Analyzer{a})); dir == "bad" && n < 5 {
			t.Errorf("bad: got %d unreached findings, want >= 5", n)
		}
	}
	for _, dir := range []string{"bad/internal/dead", "clean/internal/thing"} {
		pkg := loadTestdata(t, l, "unreached/"+dir)
		if diags := Run([]*Package{pkg}, []*Analyzer{Unreached(fixtures + dir[:strings.Index(dir, "/")])}); len(diags) != 0 {
			t.Errorf("%s without its root package: got %v, want no findings", dir, diags)
		}
	}
}

// TestGoldenIgnore runs the suppression-directive package with two analyzers
// registered, covering the same-line, next-line, statement-extent, and
// comma-list forms plus the unknown-analyzer warning. Without the directives
// the package would carry four determinism findings and one panicguard
// finding; the two wants that remain are the warning and the finding an
// unknown-name directive deliberately fails to suppress.
func TestGoldenIgnore(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	runGolden(t, l, "ignore", Determinism(), PanicGuard())
}

// TestBadPackagesHaveFindings guards the harness itself: if the want comments
// rotted away, a clean-by-accident bad package would pass runGolden silently.
func TestBadPackagesHaveFindings(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dir      string
		analyzer *Analyzer
		min      int
	}{
		{"bad/internal/greedy", NewBudgetGuard(nil), 1},
		{"bad/internal/greedy", ChargePath(), 4},
		{"tracebad/internal/trace", NewBudgetGuard(nil), 1},
		{"derivebad/internal/core", NewBudgetGuard(nil), 3},
		{"stopbad/internal/core", NewBudgetGuard(nil), 5},
		{"determinism/bad", Determinism(), 6},
		{"atomicfields/bad", AtomicFields(), 2},
		{"panicguard/bad", PanicGuard(), 2},
		{"reservepair/bad", ReservePair(), 4},
		{"chargepath/bad/internal/core", ChargePath(), 9},
		{"lockguard/bad", LockGuard(), 6},
	} {
		pkg := loadTestdata(t, l, tc.dir)
		diags := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
		if len(diags) < tc.min {
			t.Errorf("%s: got %d findings from %s, want >= %d", tc.dir, len(diags), tc.analyzer.Name, tc.min)
		}
	}
}

// TestCommentsOnOrAbove pins the multi-line behaviour: an annotation whose
// marker sits on the first line of a two-line comment group directly above
// the position must be returned whole.
func TestCommentsOnOrAbove(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadTestdata(t, l, "panicguard/clean")
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files}
	// Find the panic call by scanning for its diagnostic-free position: the
	// annotated panic in clean.go sits right below a two-line comment.
	var got []string
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, invariantMarker) {
					// Ask for comments above the line after the group's end —
					// the line the panic occupies.
					end := pkg.Fset.Position(cg.End())
					pos := pkg.Fset.File(cg.End()).LineStart(end.Line + 1)
					got = pass.CommentsOnOrAbove(pos)
				}
			}
		}
	}
	if len(got) < 2 {
		t.Fatalf("CommentsOnOrAbove returned %d comments, want the whole 2-line group: %q", len(got), got)
	}
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, invariantMarker) {
		t.Fatalf("comment group missing %q marker: %q", invariantMarker, joined)
	}
}
