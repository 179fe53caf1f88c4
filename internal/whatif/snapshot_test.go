package whatif

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"indextune/internal/iset"
	"indextune/internal/workload"
)

// warm computes costs for the given configurations and returns the observed
// (query, cfg) → cost table for later comparison.
func warm(o *Optimizer, w *workload.Workload, cfgs []iset.Set) map[string]map[int]float64 {
	out := make(map[string]map[int]float64)
	for _, q := range w.Queries {
		costs := make(map[int]float64)
		for i, cfg := range cfgs {
			costs[i] = o.WhatIf(q, cfg)
		}
		out[q.ID] = costs
	}
	return out
}

// Round-trip property over random configuration sets: a snapshot loaded into
// a fresh optimizer reproduces the exact hit set — every pair Known, every
// cost bit-identical, and no cost-model recomputation on first use.
func TestSnapshotRoundTripProperty(t *testing.T) {
	w, cands := fixture()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var cfgs []iset.Set
		seen := map[int]bool{}
		for len(cfgs) < 1+rng.Intn(20) {
			mask := 1 + rng.Intn(63)
			if seen[mask] {
				continue
			}
			seen[mask] = true
			var ords []int
			for b := 0; b < 6; b++ {
				if mask&(1<<b) != 0 {
					ords = append(ords, b)
				}
			}
			cfgs = append(cfgs, iset.FromOrdinals(ords...))
		}

		src := New(w.DB, cands)
		want := warm(src, w, cfgs)
		var buf bytes.Buffer
		if err := src.WriteSnapshot(&buf, w); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}

		dst := New(w.DB, cands)
		n, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()), w)
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		if int64(n) != src.Stats().Entries || int64(n) != dst.Stats().Entries {
			t.Fatalf("trial %d: loaded %d entries, src has %d, dst has %d",
				trial, n, src.Stats().Entries, dst.Stats().Entries)
		}
		for _, q := range w.Queries {
			for i, cfg := range cfgs {
				if !dst.Known(q, cfg) {
					t.Fatalf("trial %d: pair (%s, %v) not Known after load", trial, q.ID, cfg.Ordinals())
				}
				if got := dst.WhatIf(q, cfg); got != want[q.ID][i] {
					t.Fatalf("trial %d: cost %v != %v after round trip", trial, got, want[q.ID][i])
				}
			}
		}
		if dst.Calls() != 0 {
			t.Fatalf("trial %d: warmed optimizer recomputed %d costs", trial, dst.Calls())
		}
	}
}

// Loading is idempotent and write-after-load is stable: a second load adds
// nothing, and a snapshot of the warmed cache is byte-identical.
func TestSnapshotIdempotentAndStable(t *testing.T) {
	w, cands := fixture()
	src := New(w.DB, cands)
	warm(src, w, churnConfigs(30))
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, w); err != nil {
		t.Fatal(err)
	}
	dst := New(w.DB, cands)
	if _, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()), w); err != nil {
		t.Fatal(err)
	}
	n2, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()), w)
	if err != nil || n2 != 0 {
		t.Fatalf("second load: n=%d err=%v, want 0, nil", n2, err)
	}
	var buf2 bytes.Buffer
	if err := dst.WriteSnapshot(&buf2, w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot of a warmed cache differs from the original snapshot")
	}
}

// A snapshot from a different schema or candidate universe is stale, not
// corrupt: it loads zero entries without error.
func TestSnapshotStaleFingerprintSkipped(t *testing.T) {
	w, cands := fixture()
	src := New(w.DB, cands)
	warm(src, w, churnConfigs(10))
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, w); err != nil {
		t.Fatal(err)
	}

	// Same workload, shrunken candidate universe → different fingerprint.
	dst := New(w.DB, cands[:4])
	n, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()), w)
	if n != 0 || err != nil {
		t.Fatalf("stale load: n=%d err=%v, want 0, nil", n, err)
	}
	if dst.Stats().Entries != 0 {
		t.Fatal("stale snapshot leaked entries into the cache")
	}

	// Unrecognized magic (format bump) is stale too.
	bumped := append([]byte(nil), buf.Bytes()...)
	bumped[7] = '9'
	n, err = New(w.DB, cands).LoadSnapshot(bytes.NewReader(bumped), w)
	if n != 0 || err != nil {
		t.Fatalf("future-format load: n=%d err=%v, want 0, nil", n, err)
	}

	// A version-1 snapshot keys its entries on the old fingerprint hash: stale.
	v1 := append([]byte(nil), buf.Bytes()...)
	v1[7] = '1'
	n, err = New(w.DB, cands).LoadSnapshot(bytes.NewReader(v1), w)
	if n != 0 || err != nil {
		t.Fatalf("version-1 load: n=%d err=%v, want 0, nil", n, err)
	}
}

// A query that kept its ID but changed structure drops its entries silently;
// the other queries' entries still load.
func TestSnapshotChangedQuerySkipped(t *testing.T) {
	w, cands := fixture()
	src := New(w.DB, cands)
	warm(src, w, churnConfigs(10))
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, w); err != nil {
		t.Fatal(err)
	}

	b := workload.NewBuilder("q2")
	bg := b.Ref("big")
	b.Range(bg, "v", 0.5).Proj(bg, "pay") // selectivity changed: 0.1 → 0.5
	w2 := &workload.Workload{Name: w.Name, DB: w.DB, Queries: []*workload.Query{w.Queries[0], b.Build()}}

	dst := New(w.DB, cands)
	n, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()), w2)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || int64(n) >= src.Stats().Entries {
		t.Fatalf("loaded %d entries, want only q1's subset of %d", n, src.Stats().Entries)
	}
	for _, cfg := range churnConfigs(10) {
		if !dst.Known(w.Queries[0], cfg) {
			t.Fatal("unchanged q1 lost its snapshot entries")
		}
	}
}

// Checksum and framing damage is corruption: reported as ErrSnapshotCorrupt,
// never a panic, and a truncated file keeps what loaded cleanly.
func TestSnapshotCorruptionDetected(t *testing.T) {
	w, cands := fixture()
	src := New(w.DB, cands)
	warm(src, w, churnConfigs(12))
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, w); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	for _, flip := range []int{8, len(snap) / 2, len(snap) - 9} {
		bad := append([]byte(nil), snap...)
		bad[flip] ^= 0x40
		_, err := New(w.DB, cands).LoadSnapshot(bytes.NewReader(bad), w)
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("flip at %d: err=%v, want ErrSnapshotCorrupt", flip, err)
		}
	}
	// Truncation inside the payload breaks the checksum.
	if _, err := New(w.DB, cands).LoadSnapshot(bytes.NewReader(snap[:len(snap)-20]), w); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncated load: err=%v, want ErrSnapshotCorrupt", err)
	}
	// Truncation below the minimum frame is indistinguishable from a foreign
	// file — stale, not corrupt.
	if n, err := New(w.DB, cands).LoadSnapshot(bytes.NewReader(snap[:10]), w); n != 0 || err != nil {
		t.Fatalf("tiny file: n=%d err=%v, want 0, nil", n, err)
	}
}

// A byte-bounded optimizer enforces its capacity against snapshot loads the
// same way it does against live inserts.
func TestSnapshotLoadRespectsBound(t *testing.T) {
	w, cands := fixture()
	src := New(w.DB, cands)
	warm(src, w, churnConfigs(63))
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, w); err != nil {
		t.Fatal(err)
	}
	dst := New(w.DB, cands)
	dst.SetCacheBytes(cacheShards * cacheEntryBytes)
	if _, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()), w); err != nil {
		t.Fatal(err)
	}
	st := dst.Stats()
	if st.ResidentBytes > st.CapacityBytes {
		t.Fatalf("snapshot load left resident %d over capacity %d", st.ResidentBytes, st.CapacityBytes)
	}
}

// Snapshots must not resurrect entries for queries outside the workload
// passed to WriteSnapshot (they have no stable identity to re-key on).
func TestSnapshotDropsForeignQueries(t *testing.T) {
	w, cands := fixture()
	src := New(w.DB, cands)
	warm(src, w, churnConfigs(8))

	// A query interned in the optimizer but absent from the snapshotted
	// workload: its entries must not be written.
	b := workload.NewBuilder("phantom")
	bg := b.Ref("big")
	b.Eq(bg, "v", 0.01).Proj(bg, "id")
	phantom := b.Build()
	src.WhatIf(phantom, iset.FromOrdinals(3))

	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, w); err != nil {
		t.Fatal(err)
	}
	dst := New(w.DB, cands)
	n, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()), w)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != src.Stats().Entries-1 {
		t.Fatalf("loaded %d entries, want %d (phantom's entry dropped)", n, src.Stats().Entries-1)
	}
}
