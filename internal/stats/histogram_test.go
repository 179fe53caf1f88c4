package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// evenHistogram is the histogram of a column uniform on [lo, hi]: n
// equal-width buckets, each holding an equal share of the rows.
func evenHistogram(lo, hi float64, n int, rows, ndv int64) *Histogram {
	h := &Histogram{Min: lo, Rows: rows, NDV: ndv}
	for b := 1; b <= n; b++ {
		h.Buckets = append(h.Buckets, lo+(hi-lo)*float64(b)/float64(n))
	}
	return h
}

func TestSelectivityLessMonotone(t *testing.T) {
	h := evenHistogram(0, 100, 10, 10000, 500)
	f := func(a, b float64) bool {
		a, b = math.Mod(math.Abs(a), 120)-10, math.Mod(math.Abs(b), 120)-10
		if a > b {
			a, b = b, a
		}
		return h.SelectivityLess(a) <= h.SelectivityLess(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectivityBoundsUniform(t *testing.T) {
	h := evenHistogram(0, 100, 16, 100000, 1000)
	// P(x <= 50) should be ≈ 0.5 on uniform data.
	if got := h.SelectivityLess(50); math.Abs(got-0.5) > 0.08 {
		t.Fatalf("Sel(<=50) = %v, want ≈0.5", got)
	}
	if got := h.SelectivityGreater(75); math.Abs(got-0.25) > 0.08 {
		t.Fatalf("Sel(>75) = %v, want ≈0.25", got)
	}
	if got := h.SelectivityBetween(25, 75); math.Abs(got-0.5) > 0.1 {
		t.Fatalf("Sel(25..75) = %v, want ≈0.5", got)
	}
	// Equality on 1000 NDV ≈ 1/1000.
	if got := h.SelectivityEq(42); got < 1e-5 || got > 0.02 {
		t.Fatalf("Sel(=42) = %v, want ≈0.001", got)
	}
}

func TestSelectivityOutOfRange(t *testing.T) {
	h := evenHistogram(10, 20, 4, 1000, 50)
	if got := h.SelectivityLess(5); got > 0.01 {
		t.Fatalf("below min: %v", got)
	}
	if got := h.SelectivityLess(25); got != 1 {
		t.Fatalf("above max: %v", got)
	}
	if got := h.SelectivityEq(999); got > 0.01 {
		t.Fatalf("eq out of range: %v", got)
	}
}

func TestSelectivityNeverZeroOrAboveOne(t *testing.T) {
	h := evenHistogram(0, 10, 4, 100, 10)
	f := func(v float64) bool {
		v = math.Mod(v, 20)
		for _, s := range []float64{
			h.SelectivityEq(v), h.SelectivityLess(v),
			h.SelectivityGreater(v), h.SelectivityBetween(v-1, v+1),
		} {
			if s <= 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCatalog(t *testing.T) {
	var c Catalog
	if c.Get("t", "x") != nil || c.Len() != 0 {
		t.Fatal("empty catalog should return nil")
	}
	h := &Histogram{Buckets: []float64{0.5, 1}, Rows: 10, NDV: 2}
	c.Put("t", "x", h)
	if c.Get("t", "x") != h || c.Len() != 1 {
		t.Fatal("catalog Put/Get failed")
	}
	if c.Get("t", "y") != nil {
		t.Fatal("wrong column should return nil")
	}
}
