package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkAppendEvent compares appendEvent with encoding/json on e: the same
// line (json.Marshal plus the newline json.Encoder adds) appended after a
// non-empty prefix, or the same error text with the prefix left as it was.
func checkAppendEvent(t *testing.T, e Event) {
	t.Helper()
	prefix := []byte("prefix\n")
	got, gotErr := appendEvent(append([]byte(nil), prefix...), &e)
	want, wantErr := json.Marshal(e)
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("event %#v: error %v, encoding/json fails with %v", e, gotErr, wantErr)
		}
		var uv *json.UnsupportedValueError
		if !errors.As(gotErr, &uv) {
			t.Fatalf("event %#v: error %T, want *json.UnsupportedValueError", e, gotErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("event %#v: failed encode left %q, want the prefix alone", e, got)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("event %#v: error %v, encoding/json gives %s", e, gotErr, want)
	}
	if w := append(append(prefix, want...), '\n'); !bytes.Equal(got, w) {
		t.Fatalf("event %#v:\n got %q\nwant %q", e, got, w)
	}
}

var (
	allKinds = []Kind{KindReserve, KindCommit, KindCacheHit, KindDerived, KindDerivedBound,
		KindEpisode, KindStep, KindSlice, KindPhase, KindPoint, KindStop, KindCancel}

	// oddStrings holds every class of byte appendString escapes or copies:
	// HTML-significant ASCII, quotes and backslashes, the short and the
	// \u00XX control escapes, DEL, multi-byte UTF-8, the two line
	// separators, truncated and overlong sequences and encoded surrogates.
	oddStrings = []string{
		"", "a", "3,17,42", "<", ">", "&", `"`, `\`, "\b", "\f", "\n", "\r", "\t",
		"\x00", "\x01", "\x1f", "\x7f", "é", "日本", "\U0001F600", "\u2028", "\u2029",
		"\u2027", "\u202a", "\xff", "\xc3", "\xe2\x80", "\xc0\xaf", "\xed\xa0\x80",
		"\ufffd", "</script>", "a&b<c>d", " ", "~",
	}

	oddFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 9.25, 1e-6, -1e-6, 1e-7, -1e-7,
		math.Nextafter(1e-6, 0), 1.5e-9, 1e-10, 1e-100, 1e20, 1e21, -1e21,
		math.Nextafter(1e21, 0), 1.2345e21, 1e100, 123456789012345678,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1p-1030, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 1.0 / 3, 2.0 / 3 * 1e-7,
	}

	oddInts = []int{0, 1, -1, 2, 317, -317, math.MaxInt, math.MinInt, math.MaxInt32, math.MinInt32}
)

// randString concatenates a few odd fragments and random bytes.
func randString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		if rng.Intn(4) == 0 {
			sb.WriteByte(byte(rng.Intn(256)))
		} else {
			sb.WriteString(oddStrings[rng.Intn(len(oddStrings))])
		}
	}
	return sb.String()
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return oddFloats[rng.Intn(len(oddFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	return 0
}

func randInt(rng *rand.Rand) int {
	switch rng.Intn(3) {
	case 0:
		return oddInts[rng.Intn(len(oddInts))]
	case 1:
		return int(rng.Uint64())
	}
	return 0
}

func randEvent(rng *rand.Rand) Event {
	e := Event{
		Seq:      rng.Uint64() >> uint(rng.Intn(64)),
		Kind:     allKinds[rng.Intn(len(allKinds))],
		Query:    randInt(rng),
		Cost:     randFloat(rng),
		Cached:   rng.Intn(2) == 0,
		Derived:  rng.Intn(2) == 0,
		Value:    randFloat(rng),
		Used:     randInt(rng),
		Episode:  randInt(rng),
		Action:   randInt(rng),
		Inflight: randInt(rng),
		Refunded: randInt(rng),
	}
	if rng.Intn(8) == 0 {
		e.Kind = Kind(randString(rng))
	}
	if rng.Intn(2) == 0 {
		e.Phase = Phase(randString(rng))
	}
	if rng.Intn(2) == 0 {
		e.Algo = randString(rng)
	}
	if rng.Intn(2) == 0 {
		e.Config = randString(rng)
	}
	if rng.Intn(2) == 0 {
		e.Detail = randString(rng)
	}
	return e
}

// appendEvent writes what json.Encoder.Encode writes for every kind, every
// odd string, float and int in every field, and for random events mixing
// them — or fails as it fails.
func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	for _, k := range allKinds {
		checkAppendEvent(t, Event{Kind: k, Query: -1})
		checkAppendEvent(t, Event{Seq: 7, Kind: k, Phase: PhasePriors, Algo: "mcts", Query: 0,
			Config: "1,4,9", Cost: 12.5, Cached: true, Derived: true, Value: 0.25,
			Used: 3, Episode: 4, Action: 5, Inflight: 6, Refunded: 7, Detail: "2,3"})
	}
	for _, s := range oddStrings {
		checkAppendEvent(t, Event{Kind: Kind(s), Phase: Phase(s), Algo: s, Config: s, Detail: s})
	}
	for _, f := range oddFloats {
		checkAppendEvent(t, Event{Kind: KindCommit, Cost: f})
		checkAppendEvent(t, Event{Kind: KindPoint, Value: f})
	}
	for _, n := range oddInts {
		checkAppendEvent(t, Event{Seq: uint64(n), Kind: KindStep, Query: n, Used: n,
			Episode: n, Action: n, Inflight: n, Refunded: n})
	}
	checkAppendEvent(t, Event{Seq: math.MaxUint64, Kind: KindStop})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkAppendEvent(t, randEvent(rng))
	}
}

// FuzzAppendEvent compares appendEvent with encoding/json on arbitrary
// field values.
func FuzzAppendEvent(f *testing.F) {
	f.Add(uint64(1), "commit", "search", "", 3, "1,4,9", 12.5, false, false, 0.0, 4, 0, 0, 0, 0, "")
	f.Add(uint64(2), "episode", "priors", "mcts", -1, "\u2028<&>", 0.0, true, true, 1e-7, -1, 2, 3, 4, 5, "\xff\"\\")
	f.Add(uint64(math.MaxUint64), "\x00\b\f\n\r\t", "\xed\xa0\x80", "\u2029", math.MinInt, "", 1e21, false, true, -1e-6, math.MaxInt, 0, 0, 0, 0, "é")
	f.Add(uint64(0), "stop", "", "", 0, "", math.NaN(), false, false, math.Inf(1), 0, 0, 0, 0, 0, "")
	f.Fuzz(func(t *testing.T, seq uint64, kind, phase, algo string, q int, cfg string, cost float64,
		cached, derived bool, value float64, used, ep, action, inflight, refunded int, detail string) {
		checkAppendEvent(t, Event{Seq: seq, Kind: Kind(kind), Phase: Phase(phase), Algo: algo, Query: q,
			Config: cfg, Cost: cost, Cached: cached, Derived: derived, Value: value, Used: used,
			Episode: ep, Action: action, Inflight: inflight, Refunded: refunded, Detail: detail})
	})
}

// A recorder handed an unencodable float fails as it did on json.Encoder:
// Flush reports encoding/json's error, the stream holds every event before
// the failing one and no byte of it, and every later event is dropped while
// the counters keep counting.
func TestRecorderUnsupportedFloat(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(r *Recorder)
		v    float64
	}{
		{"commit NaN cost", func(r *Recorder) { r.Commit(0, "a", math.NaN(), 1) }, math.NaN()},
		{"step +Inf value", func(r *Recorder) { r.Step("greedy", 2, math.Inf(1), 1) }, math.Inf(1)},
		{"point -Inf value", func(r *Recorder) { r.Point(1, math.Inf(-1)) }, math.Inf(-1)},
	} {
		for _, auto := range []bool{false, true} {
			var buf bytes.Buffer
			r := New(&buf)
			r.SetAutoFlush(auto)
			r.Reserve(0, "a<b", 1)
			tc.bad(r)
			r.Reserve(1, "b", 2)
			r.Commit(1, "b", 4.5, 2)
			err := r.Flush()
			_, want := json.Marshal(tc.v)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("%s (auto-flush %v): Flush = %v, want %v", tc.name, auto, err, want)
			}
			first, _ := json.Marshal(Event{Seq: 1, Kind: KindReserve, Phase: PhaseSearch, Query: 0, Config: "a<b", Used: 1})
			if w := append(first, '\n'); !bytes.Equal(buf.Bytes(), w) {
				t.Fatalf("%s (auto-flush %v): stream %q, want %q", tc.name, auto, buf.Bytes(), w)
			}
			if s := r.Summary("", 0); s.Events != 4 || s.TotalSpend != 2 {
				t.Fatalf("%s (auto-flush %v): summary counted %d events, %d spend", tc.name, auto, s.Events, s.TotalSpend)
			}
		}
	}
}
