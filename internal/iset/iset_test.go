package iset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetBasicOps(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("zero set should be empty, got len=%d", s.Len())
	}
	s.Add(3)
	s.Add(70) // crosses a word boundary
	s.Add(3)  // duplicate
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Has(3) || !s.Has(70) || s.Has(4) {
		t.Fatalf("membership wrong: %v", s)
	}
	s.Remove(3)
	if s.Has(3) || s.Len() != 1 {
		t.Fatalf("Remove failed: %v", s)
	}
	s.Remove(1000) // out of range: no-op
	if s.Len() != 1 {
		t.Fatalf("Remove out of range changed the set: %v", s)
	}
}

func TestSetAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) should panic")
		}
	}()
	var s Set
	s.Add(-1)
}

func TestWithWithoutDoNotAlias(t *testing.T) {
	s := FromOrdinals(1, 2)
	w := s.With(9)
	if s.Has(9) {
		t.Fatal("With modified the receiver")
	}
	wo := w.Without(1)
	if !w.Has(1) {
		t.Fatal("Without modified the receiver")
	}
	if wo.Has(1) || !wo.Has(9) {
		t.Fatalf("Without result wrong: %v", wo)
	}
	// With sizes its copy once: an empty set extended by Real-M's top
	// ordinal takes one allocation, not one per word the copy grows by.
	var empty Set
	if n := testing.AllocsPerRun(100, func() { empty.With(12283) }); n != 1 {
		t.Fatalf("With on an empty set allocates %v times, want 1", n)
	}
	if got := empty.With(12283); got.NumWords() != 12283/64+1 || !got.Has(12283) || got.Len() != 1 {
		t.Fatalf("With(12283) = %d words, members %v", got.NumWords(), got.Ordinals())
	}
	if got := FromOrdinals(200).With(3); got.NumWords() != 4 || !got.Has(3) || !got.Has(200) {
		t.Fatalf("With below the top word = %d words, members %v", got.NumWords(), got.Ordinals())
	}
}

func TestSubsetUnionIntersect(t *testing.T) {
	a := FromOrdinals(1, 5, 64)
	b := FromOrdinals(1, 5, 64, 100)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if !a.SubsetOf(a) {
		t.Fatal("a ⊆ a must hold")
	}
	u := a.Union(b)
	if !u.Equal(b) {
		t.Fatalf("Union = %v, want %v", u, b)
	}
	i := a.Intersect(b)
	if !i.Equal(a) {
		t.Fatalf("Intersect = %v, want %v", i, a)
	}
	empty := Set{}
	if !empty.SubsetOf(a) {
		t.Fatal("∅ ⊆ a must hold")
	}
}

func TestOrdinalsSortedAndKeyCanonical(t *testing.T) {
	s := FromOrdinals(130, 2, 65)
	ords := s.Ordinals()
	if !sort.IntsAreSorted(ords) {
		t.Fatalf("Ordinals not sorted: %v", ords)
	}
	if got, want := s.Key(), "2,65,130"; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	if (Set{}).Key() != "" {
		t.Fatal("empty set key should be empty string")
	}
	// Key must be insertion-order independent.
	s2 := FromOrdinals(65, 130, 2)
	if s2.Key() != s.Key() {
		t.Fatal("Key depends on insertion order")
	}
}

func TestSmallConversions(t *testing.T) {
	s := FromOrdinals(7, 3, 99)
	sm := SmallFromSet(s)
	var back Set
	for _, o := range sm {
		back.Add(int(o))
	}
	if !back.Equal(s) {
		t.Fatalf("Small round-trip failed: %v vs %v", back, s)
	}
	if sm.Key() != s.Key() {
		t.Fatalf("Small.Key %q != Set.Key %q", sm.Key(), s.Key())
	}
	if !sm.Contains(7) || sm.Contains(8) {
		t.Fatal("Small.Contains wrong")
	}
	if !sm.SubsetOfSet(s) {
		t.Fatal("Small must be subset of its own set")
	}
	bigger := s.With(1)
	if !sm.SubsetOfSet(bigger) {
		t.Fatal("Small must be subset of superset")
	}
	smaller := s.Without(3)
	if sm.SubsetOfSet(smaller) {
		t.Fatal("Small must not be subset of strict subset")
	}
}

// randSet builds a random set for property tests.
func randSet(rng *rand.Rand, n int) Set {
	var s Set
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(rng.Intn(200))
		}
	}
	return s
}

func TestQuickSubsetTransitivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSet(rng, 20)
		b := a.Union(randSet(rng, 20))
		c := b.Union(randSet(rng, 20))
		return a.SubsetOf(b) && b.SubsetOf(c) && a.SubsetOf(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionCommutativeAndIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSet(rng, 25), randSet(rng, 25)
		return a.Union(b).Equal(b.Union(a)) && a.Union(a).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLenMatchesOrdinals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSet(rng, 30)
		return a.Len() == len(a.Ordinals())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// AppendSmall extends dst with the same ordinals SmallFromSet produces.
func TestQuickAppendSmallMatchesSmallFromSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSet(rng, 30)
		got := a.AppendSmall(Small{-1})
		return got[0] == -1 && fmt.Sprint(got[1:]) == fmt.Sprint(SmallFromSet(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSet(rng, 25), randSet(rng, 25)
		i := a.Intersect(b)
		return i.SubsetOf(a) && i.SubsetOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSmallSubsetAgreesWithSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSet(rng, 15), randSet(rng, 25)
		return SmallFromSet(a).SubsetOfSet(b) == a.SubsetOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// slowKey is the reference fmt-based key construction the optimized Key
// replaced; Key must stay byte-identical to it.
func slowKey(s Set) string {
	ords := s.Ordinals()
	out := ""
	for i, o := range ords {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", o)
	}
	return out
}

func TestKeyMatchesReference(t *testing.T) {
	cases := []Set{
		{},
		FromOrdinals(0),
		FromOrdinals(5, 63, 64, 65, 128, 1000),
		FromOrdinals(9, 99, 999),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		var s Set
		for j := 0; j < rng.Intn(20); j++ {
			s.Add(rng.Intn(500))
		}
		cases = append(cases, s)
	}
	for _, s := range cases {
		if got, want := s.Key(), slowKey(s); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
		if got, want := SmallFromSet(s).Key(), slowKey(s); got != want {
			t.Fatalf("Small Key() = %q, want %q", got, want)
		}
	}
}

// benchSet is a representative configuration: K=10 indexes spread over a
// few hundred candidates, as in the what-if cache hot path.
func benchSet() Set {
	return FromOrdinals(3, 17, 64, 99, 130, 201, 202, 250, 311, 400)
}

func BenchmarkSetKey(b *testing.B) {
	s := benchSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Key()
	}
}

func BenchmarkSmallKey(b *testing.B) {
	m := SmallFromSet(benchSet())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Key()
	}
}

func BenchmarkSetLen(b *testing.B) {
	s := benchSet()
	for i := 0; i < b.N; i++ {
		_ = s.Len()
	}
}

func BenchmarkSetOrdinals(b *testing.B) {
	s := benchSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Ordinals()
	}
}
