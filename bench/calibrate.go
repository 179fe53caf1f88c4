package main

import (
	"math"
	"sort"
	"time"
)

// Host speed calibration. The machines this benchmark runs on share their
// cores with other tenants, and their speed drifts by 15-25% over minutes:
// on a 2-vCPU Xeon VM the same fixed batch of 20 TPC-H sessions took
// between 0.35 s and 0.49 s within four minutes, and ten 20-second runs of
// each workload spread (interquartile distance over median) by 12-33% in
// throughput and latency. A fixed kernel, independent of the program under
// test and interleaved with the workload, slows down with it: over
// 20-second windows its time correlated at 0.89 with the batch's. Scaling
// by it brought the same ten-run spreads down to 3.5-12.5%.
//
// Every end-to-end time is therefore reported at the reference speed: a
// duration measured while the kernel took k is scaled by refKernel/k, using
// the kernel samples of its own round. Each run prints its scale factor.

// refKernel is the calibration kernel's duration on an unloaded 2.1 GHz
// Xeon vCPU, the speed every reported time is scaled to.
const refKernel = 10 * time.Millisecond

// calibrateEvery is the spacing of kernel samples during a measured window:
// about sixteen per round at a cost of 4% of the window.
const calibrateEvery = 250 * time.Millisecond

// kernel is the fixed calibration work: float math, a small map and small
// sorts, all cache-resident — the instruction mix of the tuner's own loops
// without any of its code. It returns a value its caller keeps, so the
// compiler cannot drop the work.
func kernel() float64 {
	m := make(map[int]float64, 256)
	xs := make([]float64, 512)
	sum := 0.0
	for it := 0; it < 280; it++ {
		for i := range xs {
			xs[i] = math.Sin(float64(i*it)) * 1000
			m[i&255] += xs[i]
		}
		sort.Float64s(xs)
		sum += xs[it%len(xs)] + m[it&255]
	}
	return sum
}

// calibrator times kernel samples over a window.
type calibrator struct {
	now     clock
	start   time.Time
	window  time.Duration
	last    time.Time
	samples [rounds][]time.Duration
	all     []time.Duration
	sink    float64 // the kernel results
}

func newCalibrator(now clock, start time.Time, window time.Duration) *calibrator {
	return &calibrator{now: now, start: start, window: window}
}

// sample times one kernel run.
func (c *calibrator) sample() {
	t0 := c.now()
	c.sink += kernel()
	t1 := c.now()
	d := t1.Sub(t0)
	k := roundOf(t0.Sub(c.start), c.window)
	c.samples[k] = append(c.samples[k], d)
	c.all = append(c.all, d)
	c.last = t1
}

// due reports whether calibrateEvery has passed since the last sample.
func (c *calibrator) due() bool {
	return c.last.IsZero() || c.now().Sub(c.last) >= calibrateEvery
}

// maybe samples the kernel when it is due.
func (c *calibrator) maybe() {
	if c.due() {
		c.sample()
	}
}

// factor is the scale factor of round k: refKernel over the median kernel
// time of the round (of the whole window when the round has no sample).
// The median ignores the samples a context switch lengthened.
func (c *calibrator) factor(k int) float64 {
	s := c.samples[k]
	if len(s) == 0 {
		s = c.all
	}
	return medianFactor(s)
}

// medianFactor is refKernel over the median of kernel samples, or 1 with
// none.
func medianFactor(s []time.Duration) float64 {
	if len(s) == 0 {
		return 1
	}
	xs := make([]float64, len(s))
	for i, d := range s {
		xs[i] = float64(d)
	}
	return float64(refKernel) / median(xs)
}

// scale returns d, measured at offset at of the window, at reference speed.
func (c *calibrator) scale(d, at time.Duration) time.Duration {
	return time.Duration(float64(d) * c.factor(roundOf(at, c.window)))
}

// windowFactor is the window's overall scale factor.
func (c *calibrator) windowFactor() float64 { return medianFactor(c.all) }

// setupSamples is the number of kernel samples taken right before each
// set-up measurement.
const setupSamples = 3

// timedAtReference times f, which runs outside any window, and scales its
// duration by the median of setupSamples kernel samples taken just before.
func timedAtReference(now clock, f func() error) (time.Duration, error) {
	c := newCalibrator(now, now(), time.Hour)
	for i := 0; i < setupSamples; i++ {
		c.sample()
	}
	t0 := now()
	err := f()
	d := now().Sub(t0)
	return time.Duration(float64(d) * c.windowFactor()), err
}
