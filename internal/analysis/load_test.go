package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadClosedBatchMatchesLoadDir pins the closed-batch case: schema and
// workload loaded together return the same paths and files as each
// directory loaded on its own, and workload imports schema's own checked
// package — one universe, each package checked once.
func TestLoadClosedBatchMatchesLoadDir(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	const schemaPath = "indextune/internal/schema"
	dirs := []string{"internal/schema", "internal/workload"}

	batch, err := l.Load(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].Path != schemaPath {
		t.Fatalf("batch loaded %d packages, want schema then workload", len(batch))
	}

	for i, dir := range dirs {
		sl, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		single, err := sl.Load([]string{dir})
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != 1 {
			t.Fatalf("loading %s alone returned %d packages, want 1", dir, len(single))
		}
		if batch[i].Path != single[0].Path {
			t.Errorf("package %d path = %q (batch) vs %q (alone)", i, batch[i].Path, single[0].Path)
		}
		if len(batch[i].Files) != len(single[0].Files) {
			t.Errorf("%s: %d files (batch) vs %d (alone)", batch[i].Path, len(batch[i].Files), len(single[0].Files))
		}
	}

	found := false
	for _, imp := range batch[1].Types.Imports() {
		if imp == batch[0].Types {
			found = true
		}
	}
	if !found {
		t.Errorf("%s does not import %s's own checked package; the load re-checked it", batch[1].Path, schemaPath)
	}
}

// TestLoadOpenBatchFallsBack pins the open-batch case: loading
// internal/workload alone, without its module dependency internal/schema,
// still returns exactly workload, and the load type-checks schema as an
// unreturned context package so workload imports a resolved schema.
func TestLoadOpenBatchFallsBack(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	const schemaPath = "indextune/internal/schema"

	alone, err := l.Load([]string{"internal/workload"})
	if err != nil {
		t.Fatal(err)
	}
	if len(alone) != 1 || alone[0].Path != "indextune/internal/workload" {
		t.Fatalf("loading workload alone returned %d packages, want exactly workload", len(alone))
	}
	resolved := false
	for _, imp := range alone[0].Types.Imports() {
		if imp.Path() == schemaPath && imp.Complete() && imp.Scope().Len() > 0 {
			resolved = true
		}
	}
	if !resolved {
		t.Errorf("workload loaded alone does not import a resolved %s", schemaPath)
	}
}

// TestLoadErrorNamesPackage pins the failure modes of the one route: a
// module import with no directory is an error naming that directory, and an
// import the gc export data cannot resolve is an error naming the package —
// never a silent fallback.
func TestLoadErrorNamesPackage(t *testing.T) {
	for _, tc := range []struct{ imp, want string }{
		{"m/missing", string(filepath.Separator) + "missing"},
		{"nosuch/stdpkg", "nosuch/stdpkg"},
	} {
		root := t.TempDir()
		write := func(name, body string) {
			if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("go.mod", "module m\n\ngo 1.22\n")
		write("a.go", "package a\n\nimport _ \""+tc.imp+"\"\n")
		l, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		_, err = l.Load([]string{"."})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("loading a package importing %s: err = %v, want an error naming %s", tc.imp, err, tc.want)
		}
	}
}
