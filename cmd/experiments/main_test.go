package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// Usage errors exit 2 before anything is created: an unknown -fig id no
// longer leaves an empty -csv file behind.
func TestUsageErrorsExit2(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	for _, args := range [][]string{
		{},
		{"-no-such-flag"},
		{"-fig", "table1,99", "-csv", csv},
		{"-fig", "table1", "-derive-epsilon", "NaN", "-csv", csv},
		{"-fig", "table1", "-derive-epsilon", "-0.1", "-csv", csv},
		{"-fig", "table1", "-stop-epsilon", "Inf", "-csv", csv},
		{"-fig", "table1", "-stop-epsilon", "-Inf", "-csv", csv},
	} {
		if code, _, stderr := runCmd(args...); code != exitUsage {
			t.Fatalf("%v: exit %d, want %d (stderr %q)", args, code, exitUsage, stderr)
		}
	}
	if _, err := os.Stat(csv); !os.IsNotExist(err) {
		t.Fatalf("unknown id created the csv file: %v", err)
	}
	if code, _, _ := runCmd("-h"); code != exitOK {
		t.Fatalf("-h: exit %d, want 0", code)
	}
}

// Runtime errors exit 1: a CSV path that cannot be created, and a CSV
// write that fails.
func TestRuntimeErrorsExit1(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out.csv")
	if code, _, stderr := runCmd("-fig", "table1", "-csv", missing); code != exitRuntime {
		t.Fatalf("uncreatable csv: exit %d, want %d (stderr %q)", code, exitRuntime, stderr)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write on")
	}
	if code, _, stderr := runCmd("-fig", "table1", "-csv", "/dev/full"); code != exitRuntime {
		t.Fatalf("failing csv write: exit %d, want %d (stderr %q)", code, exitRuntime, stderr)
	}
}

// A run writes the figure as text and, with -csv, as CSV, and exits 0.
func TestRunWritesTextAndCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	code, stdout, stderr := runCmd("-fig", " table1 ", "-csv", csv)
	if code != exitOK {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "Table 1") {
		t.Fatalf("stdout lacks the table: %q", stdout)
	}
	data, err := os.ReadFile(csv)
	if err != nil || len(data) == 0 {
		t.Fatalf("csv: %d bytes, err %v", len(data), err)
	}
}

// A multi-id run writes one CSV file with one header row: every row is a
// 7-field record and only the first is the header.
func TestMultiFigureCSVHasOneHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if code, _, stderr := runCmd("-fig", "table1,2", "-seeds", "1", "-scale", "100", "-csv", path); code != exitOK {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	headers := 0
	figures := make(map[string]bool)
	for i, row := range rows {
		if len(row) != 7 {
			t.Fatalf("row %d has %d fields, want 7: %q", i, len(row), row)
		}
		if row[0] == "figure" {
			headers++
			if i != 0 {
				t.Fatalf("header repeated at row %d", i)
			}
			continue
		}
		figures[row[0]] = true
	}
	if headers != 1 || len(figures) != 2 {
		t.Fatalf("%d header rows and figures %v, want 1 header and 2 figures", headers, figures)
	}
}
