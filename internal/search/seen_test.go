package search

import (
	"math"
	"math/rand"
	"testing"

	"indextune/internal/iset"
	"indextune/internal/whatif"
)

// TestPairSetMatchesMap drives the seen set and a map reference through
// random interleaved inserts and lookups: pairs sharing a fingerprint
// across queries (the empty configuration's case), the zero Pair, extreme
// query ids, repeats, and enough members to grow the table many times.
func TestPairSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ps pairSet
	ref := make(map[whatif.Pair]struct{})
	fps := []uint64{0, 1, 14695981039346656037, math.MaxUint64}
	draw := func() whatif.Pair {
		switch rng.Intn(4) {
		case 0:
			// A shared fingerprint under many query ids.
			return whatif.Pair{QID: uint32(rng.Intn(64)), FP: fps[rng.Intn(len(fps))]}
		case 1:
			return whatif.Pair{QID: []uint32{0, 1, math.MaxUint32}[rng.Intn(3)], FP: fps[rng.Intn(len(fps))]}
		default:
			return whatif.Pair{QID: uint32(rng.Intn(40)), FP: rng.Uint64()}
		}
	}
	if ps.has(whatif.Pair{}) {
		t.Fatal("empty set holds the zero pair")
	}
	for step := 0; step < 200000; step++ {
		p := draw()
		_, want := ref[p]
		if got := ps.has(p); got != want {
			t.Fatalf("step %d: has(%v) = %v, want %v", step, p, got, want)
		}
		if rng.Intn(3) > 0 {
			ps.add(p)
			ref[p] = struct{}{}
		}
		if ps.n != len(ref) {
			t.Fatalf("step %d: %d members, want %d", step, ps.n, len(ref))
		}
	}
	if len(ps.slots) < 2*len(ref) {
		t.Fatalf("table of %d slots holds %d members: more than half full", len(ps.slots), len(ref))
	}
	for p := range ref {
		if !ps.has(p) {
			t.Fatalf("lost member %v", p)
		}
	}
	if _, ok := ref[whatif.Pair{}]; !ok {
		t.Fatal("the stream never added the zero pair")
	}
}

// TestSeenAllocationFree pins membership tests at zero allocations, with
// unprojected and projected keys.
func TestSeenAllocationFree(t *testing.T) {
	s := newTestSession(t, 1000)
	cfg := iset.FromOrdinals(s.Relevant(0)[0])
	s.WhatIf(0, cfg)
	if !s.Seen(0, cfg) {
		t.Fatal("a charged pair is not seen")
	}
	for _, eps := range []float64{0, DefaultDeriveEpsilon} {
		s.DeriveEpsilon = eps
		if n := testing.AllocsPerRun(100, func() {
			for qi := range s.W.Queries {
				s.Seen(qi, cfg)
			}
		}); n != 0 {
			t.Fatalf("DeriveEpsilon %v: Seen allocates %v times per pass", eps, n)
		}
	}
}
