package main

import (
	"encoding/json"
	"strings"
	"testing"

	"indextune/internal/analysis"
)

// The driver tests run the real run() entry point: seeded-violation testdata
// packages must produce exit code 1 with diagnostics on stdout, clean
// packages exit 0, and bad usage exits 2. Patterns are relative to the module
// root (the loader resolves them from there), so the test does not depend on
// its own working directory beyond being inside the module.

func TestRunFlagsSeededViolations(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"internal/analysis/testdata/src/bad/internal/greedy"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"budgetguard", "chargepath", "reaches whatif.Optimizer cost method", "imports indextune/internal/whatif"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCleanPackageExitsZero(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"internal/analysis/testdata/src/clean/internal/greedy"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("clean run produced output: %s", out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no-pattern exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Errorf("stderr missing usage line: %s", errb.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	for _, name := range []string{"budgetguard", "determinism", "atomicfields", "panicguard"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-json", "internal/analysis/testdata/src/bad/internal/greedy"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 4 {
		t.Fatalf("got %d JSONL lines, want >= 4:\n%s", len(lines), out.String())
	}
	type diag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	var prev diag
	for i, l := range lines {
		var d diag
		if err := json.Unmarshal([]byte(l), &d); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, l)
		}
		if d.File == "" || d.Line == 0 || d.Col == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("line %d has empty fields: %+v", i, d)
		}
		if i > 0 {
			if d.File < prev.File || (d.File == prev.File && d.Line < prev.Line) {
				t.Errorf("JSONL output not sorted at line %d: %s:%d after %s:%d", i, d.File, d.Line, prev.File, prev.Line)
			}
		}
		prev = d
	}
}

// TestRunDeterministicOutput pins the parallel pipeline's ordering contract:
// two runs over several packages must produce byte-identical output.
func TestRunDeterministicOutput(t *testing.T) {
	args := []string{
		"internal/analysis/testdata/src/bad/internal/greedy",
		"internal/analysis/testdata/src/derivebad/internal/core",
		"internal/analysis/testdata/src/reservepair/bad",
		"internal/analysis/testdata/src/lockguard/bad",
	}
	var first string
	for i := 0; i < 2; i++ {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 1 {
			t.Fatalf("run %d exit code = %d, want 1; stderr: %s", i, code, errb.String())
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Errorf("output differs between identical runs:\n--- run 0 ---\n%s--- run 1 ---\n%s", first, out.String())
		}
	}
}

// TestListMatchesDefaultAnalyzers is the registration regression: the driver
// must advertise exactly the analysis.DefaultAnalyzers() suite, so a new
// analyzer cannot be added to the library but forgotten by the lint gate.
func TestListMatchesDefaultAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	defaults := analysis.DefaultAnalyzers()
	if len(lines) != len(defaults) {
		t.Fatalf("-list shows %d analyzers, DefaultAnalyzers has %d:\n%s", len(lines), len(defaults), out.String())
	}
	for i, a := range defaults {
		if !strings.HasPrefix(lines[i], a.Name) {
			t.Errorf("-list line %d = %q, want analyzer %q", i, lines[i], a.Name)
		}
	}
	for _, name := range []string{"reservepair", "chargepath", "lockguard"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing the dataflow analyzer %q:\n%s", name, out.String())
		}
	}
}
