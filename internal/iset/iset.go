// Package iset provides compact index-set representations used throughout
// the tuner: a word-backed bitset (Set) for configurations over the candidate
// universe, and a small sorted-slice form (Small) for persisted what-if call
// records, where sets rarely exceed the cardinality constraint K.
package iset

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
)

const wordBits = 64

// Set is a bitset over candidate-index ordinals. The zero value is an empty
// set ready to use.
type Set struct {
	words []uint64
}

// NewSet returns an empty set sized for n ordinals.
func NewSet(n int) Set {
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromOrdinals builds a set containing the given ordinals.
func FromOrdinals(ords ...int) Set {
	var s Set
	for _, o := range ords {
		s.Add(o)
	}
	return s
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts ordinal i.
func (s *Set) Add(i int) {
	if i < 0 {
		// invariant: ordinals index the candidate universe and are produced
		// by candgen/enumeration loops, which never go negative.
		panic(fmt.Sprintf("iset: negative ordinal %d", i))
	}
	w := i / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(i%wordBits)
}

// Remove deletes ordinal i if present.
func (s *Set) Remove(i int) {
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
}

// Has reports whether ordinal i is in the set.
func (s Set) Has(i int) bool {
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Len returns the number of ordinals in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// With returns a copy of s with ordinal i added.
func (s Set) With(i int) Set {
	c := s.Clone()
	c.Add(i)
	return c
}

// Without returns a copy of s with ordinal i removed.
func (s Set) Without(i int) Set {
	c := s.Clone()
	c.Remove(i)
	return c
}

// SubsetOf reports whether every member of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same ordinals.
func (s Set) Equal(t Set) bool {
	return s.SubsetOf(t) && t.SubsetOf(s)
}

// Union returns the union of s and t.
func (s Set) Union(t Set) Set {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	out := Set{words: make([]uint64, n)}
	for i := range out.words {
		if i < len(s.words) {
			out.words[i] |= s.words[i]
		}
		if i < len(t.words) {
			out.words[i] |= t.words[i]
		}
	}
	return out
}

// Intersect returns the intersection of s and t.
func (s Set) Intersect(t Set) Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := Set{words: make([]uint64, n)}
	for i := range out.words {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// NumWords returns the number of backing words. Together with Word it gives
// hot paths allocation-free access to the raw bitset for hashing and masking
// (the what-if cache fingerprints configurations from these words).
func (s Set) NumWords() int { return len(s.words) }

// Word returns the i-th backing word, or 0 when i is past the backing slice —
// callers may therefore iterate to any fixed width without bounds juggling.
func (s Set) Word(i int) uint64 {
	if i < len(s.words) {
		return s.words[i]
	}
	return 0
}

// AppendSmall appends the members of s to dst in ascending order and
// returns the extended slice — with dst sorted and below s's members, a
// Small. Hot read paths pass a stack buffer to collect a configuration's
// ordinals without allocating.
func (s Set) AppendSmall(dst Small) Small {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, int32(wi*wordBits+b))
			w &= w - 1
		}
	}
	return dst
}

// Ordinals returns the members in ascending order.
func (s Set) Ordinals() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Key returns a canonical string key suitable for map lookup. It is on the
// hot path of every what-if cache lookup, so it appends decimal ordinals to
// a single byte buffer instead of formatting through fmt.
func (s Set) Key() string {
	n := s.Len()
	if n == 0 {
		return ""
	}
	buf := make([]byte, 0, n*5)
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if len(buf) > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(wi*wordBits+b), 10)
			w &= w - 1
		}
	}
	return string(buf)
}

// String implements fmt.Stringer.
func (s Set) String() string {
	return "{" + s.Key() + "}"
}

// Small is a sorted slice of ordinals: the compact persisted form of a set
// whose cardinality is bounded by the tuning constraint K.
type Small []int32

// SmallFromSet converts a Set into its Small form.
func SmallFromSet(s Set) Small {
	ords := s.Ordinals()
	out := make(Small, len(ords))
	for i, o := range ords {
		out[i] = int32(o)
	}
	return out
}

// SubsetOfSet reports whether every ordinal of m is present in s.
func (m Small) SubsetOfSet(s Set) bool {
	for _, o := range m {
		if !s.Has(int(o)) {
			return false
		}
	}
	return true
}

// Contains reports whether m contains ordinal o.
func (m Small) Contains(o int) bool {
	i := sort.Search(len(m), func(i int) bool { return m[i] >= int32(o) })
	return i < len(m) && m[i] == int32(o)
}

// Key returns the canonical key of m, identical to the Key of its Set form.
func (m Small) Key() string {
	if len(m) == 0 {
		return ""
	}
	buf := make([]byte, 0, len(m)*5)
	for i, o := range m {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(o), 10)
	}
	return string(buf)
}
