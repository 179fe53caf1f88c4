package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// The traced pass attributes CPU to layers from a runtime/pprof CPU profile.
// The profile is decoded here, with the standard library only, from its
// gzipped profile.proto encoding: just the fields needed to turn each sample
// into a stack of function names.

// stackSample is one profile sample: function names leaf first (inlined
// frames included) and the number of profiling ticks it stands for.
type stackSample struct {
	funcs []string
	count int64
}

// protoBuf is a cursor over protobuf wire-format bytes.
type protoBuf struct {
	b []byte
	i int
}

var errTruncated = errors.New("truncated protobuf")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if p.i >= len(p.b) {
			return 0, errTruncated
		}
		c := p.b[p.i]
		p.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// next reads a field header and, for length-delimited fields, the payload.
func (p *protoBuf) next() (field int, wire int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = p.varint()
	case 1:
		if p.i+8 > len(p.b) {
			return 0, 0, 0, nil, errTruncated
		}
		p.i += 8
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)-p.i) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data = p.b[p.i : p.i+int(n)]
			p.i += int(n)
		}
	case 5:
		if p.i+4 > len(p.b) {
			return 0, 0, 0, nil, errTruncated
		}
		p.i += 4
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, val, data, err
}

// varints decodes a repeated varint field that may be packed (wire type 2)
// or appear once per element (wire type 0).
func varints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	q := protoBuf{b: data}
	for q.i < len(q.b) {
		v, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// profile runs f under the CPU profiler and returns the profile's samples
// and the bytes f allocated.
func profile(f func()) ([]stackSample, uint64, error) {
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("starting CPU profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	samples, err := parseProfile(buf.Bytes())
	return samples, after.TotalAlloc - before.TotalAlloc, err
}

// parseProfile decodes a gzipped CPU profile into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("opening profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string table index
		strs    []string
	)
	p := protoBuf{b: raw}
	for p.i < len(p.b) {
		field, _, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		q := protoBuf{b: data}
		switch field {
		case 2: // Sample
			var s rawSample
			for q.i < len(q.b) {
				f, w, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = varints(s.locs, w, v, d)
				case 2:
					s.values, err = varints(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for q.i < len(q.b) {
				f, _, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := protoBuf{b: d}
					for l.i < len(l.b) {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			for q.i < len(q.b) {
				f, _, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// layerPrefixes maps package paths onto the benchmark's layers. Helper
// packages (iset, schema, vclock, workload) and the Go runtime are absent:
// their frames are charged to the innermost layer frame that called them.
var layerPrefixes = []struct{ prefix, layer string }{
	{"indextune/internal/whatif.", "whatif"},
	{"indextune/internal/cost.", "cost"},
	{"indextune/internal/search.", "search"},
	{"indextune/internal/greedy.", "greedy"},
	{"indextune/internal/earlystop.", "earlystop"},
	{"indextune/internal/core.", "core"},
	{"indextune/internal/trace.", "trace"},
	{"indextune/internal/jobs.", "jobs"},
}

// selfLayers are the layers whose self share the traced pass reports.
var selfLayers = []string{"whatif", "cost", "search", "greedy", "earlystop", "core", "trace", "jobs"}

// cumulativeShares are the function groups whose inclusive CPU share the
// traced pass reports: the share of samples with any of them on the stack.
var cumulativeShares = []struct {
	name  string
	funcs []string
}{
	{"greedy.extract_cum_share", []string{"indextune/internal/greedy.DerivedOnly"}},
	{"whatif.model_cum_share", []string{
		"indextune/internal/whatif.(*Optimizer).WhatIf",
		"indextune/internal/whatif.(*Optimizer).WhatIfBatch",
		"indextune/internal/whatif.(*Optimizer).BaseCost",
		"indextune/internal/whatif.(*Optimizer).PeekCost",
	}},
	{"search.setup_cum_share", []string{"indextune/internal/search.NewSession"}},
	{"search.seen_cum_share", []string{"indextune/internal/search.(*Session).Seen"}},
	{"cost.bounds_cum_share", []string{"indextune/internal/cost.(*DerivedStore).Bounds"}},
	{"cost.query_cum_share", []string{
		"indextune/internal/cost.(*DerivedStore).Query",
		"indextune/internal/cost.(*DerivedStore).QueryWith",
	}},
}

// gcRoot marks samples taken in the runtime's background mark workers.
const gcRoot = "runtime.gcBgMarkWorker"

// harnessKernel marks samples of the harness's calibration kernel, which
// are left out: they are the benchmark's work, not the program's.
const harnessKernel = "main.kernel"

func layerOf(fn string) string {
	for _, lp := range layerPrefixes {
		if strings.HasPrefix(fn, lp.prefix) {
			return lp.layer
		}
	}
	return ""
}

// profileShares groups samples by the innermost layer frame (background GC
// separately) and reports every layer's self share, the GC share and the
// cumulative shares, each as a fraction of all samples but the calibration
// kernel's.
func profileShares(samples []stackSample, rep *report) {
	var total int64
	self := map[string]int64{}
	cum := make([]int64, len(cumulativeShares))
	for _, s := range samples {
		if stackHasAny(s.funcs, []string{harnessKernel}) {
			continue
		}
		total += s.count
		layer := ""
		for _, fn := range s.funcs {
			if fn == gcRoot {
				layer = "gc"
				break
			}
		}
		for _, fn := range s.funcs {
			if layer != "" {
				break
			}
			layer = layerOf(fn)
		}
		self[layer] += s.count
		for i, c := range cumulativeShares {
			if stackHasAny(s.funcs, c.funcs) {
				cum[i] += s.count
			}
		}
	}
	share := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	n := int(total)
	for _, l := range selfLayers {
		rep.set(l+".self_share", share(self[l]), "share", n)
	}
	rep.set("gc.share", share(self["gc"]), "share", n)
	for i, c := range cumulativeShares {
		rep.set(c.name, share(cum[i]), "share", n)
	}
}

func stackHasAny(stack, funcs []string) bool {
	for _, fn := range stack {
		for _, f := range funcs {
			if fn == f {
				return true
			}
		}
	}
	return false
}
