package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"

	"indextune/internal/search"
)

// updateGolden rewrites the committed figure digests from the current tree:
//
//	go test -run TestFiguresGolden ./internal/experiments -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden tables from the current tree")

// figuresGoldenPath holds one "id<TAB>CSV SHA-256" line per pinned figure.
const figuresGoldenPath = "testdata/figures_golden.tsv"

// goldenIDs are the experiments TestFiguresGolden pins: together they reach
// every figure builder, and at goldenCfg they run in seconds. Figures 10, 13,
// 15, 22 and 23 repeat builders pinned here on slower workloads.
var goldenIDs = []string{
	"table1", "2", "8", "9", "11", "12", "14", "16", "17", "18", "19", "20",
	"21", "earlystop", "policies",
}

// goldenCfg is the smallest fidelity with the experiments CLI's default
// epsilons, so the pinned digests cover bound interception and early
// stopping as `experiments -seeds 1 -scale 100` runs them.
var goldenCfg = Config{
	Seeds: 1, Scale: 100,
	DeriveEpsilon: search.DefaultDeriveEpsilon,
	StopEpsilon:   search.DefaultStopEpsilon,
}

// TestFiguresGolden pins every pinned figure's CSV byte for byte: a change
// to how a figure is declared or swept must leave its series, labels and
// values exactly as they were.
func TestFiguresGolden(t *testing.T) {
	want := readFiguresGolden(t)
	got := make(map[string]string)
	for _, id := range goldenIDs {
		fig, err := ByID(goldenCfg, id)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := fig.WriteCSV(h, true); err != nil {
			t.Fatal(err)
		}
		got[id] = hex.EncodeToString(h.Sum(nil))
		if !*updateGolden && got[id] != want[id] {
			t.Errorf("figure %s diverged from %s:\n  want: %s\n  got:  %s", id, figuresGoldenPath, want[id], got[id])
		}
	}
	if *updateGolden && !t.Failed() {
		writeFiguresGolden(t, got)
	}
}

func readFiguresGolden(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	f, err := os.Open(figuresGoldenPath)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, sum, _ := strings.Cut(line, "\t")
		out[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeFiguresGolden(t *testing.T, got map[string]string) {
	t.Helper()
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("# TestFiguresGolden golden: experiment id, SHA-256 of its CSV at Seeds 1, Scale 100, derive ε 0.05, stop ε 0.1.\n")
	for _, id := range ids {
		b.WriteString(id + "\t" + got[id] + "\n")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(figuresGoldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
