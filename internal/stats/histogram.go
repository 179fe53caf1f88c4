// Package stats provides column statistics beyond NDV: equi-depth
// histograms with selectivity estimation for equality and range predicates.
// The what-if optimizer of a real system estimates predicate selectivities
// from such histograms during every optimizer (and hence what-if) call; this
// package lets parsed SQL predicates carry literal values and receive
// data-dependent selectivities instead of fixed defaults.
package stats

// Histogram is an equi-depth (equi-height) histogram over a numeric column.
// Each bucket holds approximately Rows/len(Buckets) rows between its bounds.
type Histogram struct {
	// Buckets are upper bounds, ascending; bucket i covers
	// (Buckets[i-1], Buckets[i]] with Buckets[-1] = Min.
	Buckets []float64
	// Min is the lowest value in the column.
	Min float64
	// Rows is the total row count the histogram describes.
	Rows int64
	// NDV is the number of distinct values.
	NDV int64
}

// Max returns the histogram's highest bound.
func (h *Histogram) Max() float64 {
	return h.Buckets[len(h.Buckets)-1]
}

// bucketShare is the fraction of rows per bucket (equi-depth).
func (h *Histogram) bucketShare() float64 {
	return 1 / float64(len(h.Buckets))
}

// SelectivityEq estimates the selectivity of column = v.
func (h *Histogram) SelectivityEq(v float64) float64 {
	if v < h.Min || v > h.Max() {
		return clampSel(0, h.Rows)
	}
	// Uniform within the containing bucket: share / distinct-per-bucket.
	perBucketNDV := float64(h.NDV) / float64(len(h.Buckets))
	if perBucketNDV < 1 {
		perBucketNDV = 1
	}
	return clampSel(h.bucketShare()/perBucketNDV, h.Rows)
}

// SelectivityLess estimates the selectivity of column <= v.
func (h *Histogram) SelectivityLess(v float64) float64 {
	if v < h.Min {
		return clampSel(0, h.Rows)
	}
	if v >= h.Max() {
		return 1
	}
	share := h.bucketShare()
	total := 0.0
	lo := h.Min
	for _, hi := range h.Buckets {
		if v >= hi {
			total += share
		} else {
			// Linear interpolation within the bucket.
			if hi > lo {
				total += share * (v - lo) / (hi - lo)
			}
			break
		}
		lo = hi
	}
	return clampSel(total, h.Rows)
}

// SelectivityGreater estimates the selectivity of column > v.
func (h *Histogram) SelectivityGreater(v float64) float64 {
	return clampSel(1-h.SelectivityLess(v), h.Rows)
}

// SelectivityBetween estimates the selectivity of lo <= column <= hi.
func (h *Histogram) SelectivityBetween(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	s := h.SelectivityLess(hi) - h.SelectivityLess(lo) + h.SelectivityEq(lo)
	return clampSel(s, h.Rows)
}

// clampSel keeps a selectivity within (1/rows, 1]: a predicate matching
// nothing still costs one probe, and nothing exceeds the full table.
func clampSel(s float64, rows int64) float64 {
	lo := 1e-9
	if rows > 0 {
		lo = 1 / float64(rows)
	}
	if s < lo {
		return lo
	}
	if s > 1 {
		return 1
	}
	return s
}

// Catalog maps table.column names to histograms. The zero value is an empty
// catalog ready to use.
type Catalog struct {
	hists map[string]*Histogram
}

// Put registers a histogram for table.column.
func (c *Catalog) Put(table, column string, h *Histogram) {
	if c.hists == nil {
		c.hists = make(map[string]*Histogram)
	}
	c.hists[table+"."+column] = h
}

// Get returns the histogram for table.column, or nil.
func (c *Catalog) Get(table, column string) *Histogram {
	return c.hists[table+"."+column]
}

// Len returns the number of registered histograms.
func (c *Catalog) Len() int { return len(c.hists) }
