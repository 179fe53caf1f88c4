package search

import (
	"math/bits"

	"indextune/internal/whatif"
)

// pairSet is the session's seen set: an open-addressed hash set of
// whatif.Pair with linear probing, kept at most half full. A pair's
// fingerprint is already an avalanched hash, so the slot index is the high
// bits of one multiply folding in the query id — which alone tells apart
// the pairs of different queries whose configurations share a fingerprint
// (every query's empty configuration has the same one). Membership tests
// allocate nothing; the table doubles as it fills.
type pairSet struct {
	slots []pairSlot
	n     int // occupied slots
	shift uint
}

// pairSlot is one table slot: a pair's fingerprint and its query id plus
// one, so that 0 marks a free slot and the zero Pair is a member like any
// other. 16 bytes, against 24 for a Pair with a flag.
type pairSlot struct {
	fp  uint64
	tag uint64
}

// pairSetMinSlots is the initial table size (a power of two).
const pairSetMinSlots = 64

// home returns the first probe position of the pair (fp, qid).
func (ps *pairSet) home(fp uint64, qid uint32) int {
	return int((fp ^ uint64(qid)) * 0x9e3779b97f4a7c15 >> ps.shift)
}

// has reports whether p is in the set.
func (ps *pairSet) has(p whatif.Pair) bool {
	if ps.n == 0 {
		return false
	}
	tag := uint64(p.QID) + 1
	mask := len(ps.slots) - 1
	for i := ps.home(p.FP, p.QID); ; i = (i + 1) & mask {
		sl := &ps.slots[i]
		if sl.tag == 0 {
			return false
		}
		if sl.fp == p.FP && sl.tag == tag {
			return true
		}
	}
}

// add inserts p; adding a member again changes nothing.
func (ps *pairSet) add(p whatif.Pair) {
	if 2*(ps.n+1) > len(ps.slots) {
		ps.grow()
	}
	ps.insert(pairSlot{fp: p.FP, tag: uint64(p.QID) + 1})
}

// insert places the slot value v unless its pair is already present.
func (ps *pairSet) insert(v pairSlot) {
	mask := len(ps.slots) - 1
	for i := ps.home(v.fp, uint32(v.tag-1)); ; i = (i + 1) & mask {
		sl := &ps.slots[i]
		if sl.tag == 0 {
			*sl = v
			ps.n++
			return
		}
		if *sl == v {
			return
		}
	}
}

// grow doubles the table (or allocates the first one) and reinserts every
// member.
func (ps *pairSet) grow() {
	size := 2 * len(ps.slots)
	if size < pairSetMinSlots {
		size = pairSetMinSlots
	}
	old := ps.slots
	ps.slots = make([]pairSlot, size)
	ps.shift = uint(64 - bits.TrailingZeros(uint(size)))
	ps.n = 0
	for _, v := range old {
		if v.tag != 0 {
			ps.insert(v)
		}
	}
}
