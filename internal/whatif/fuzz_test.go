package whatif

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot on a fresh
// optimizer. With reseal set, the input's payload is first given the
// optimizer's fingerprint and a valid checksum, so the fuzzer reaches the
// query-group framing instead of stopping at the checksum. LoadSnapshot
// must never panic: it returns ErrSnapshotCorrupt or nil, and the count it
// returns is exactly the entries the cache gained.
func FuzzLoadSnapshot(f *testing.F) {
	w, cands := fixture()
	src := New(w.DB, cands)
	warm(src, w, churnConfigs(12))
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, w); err != nil {
		f.Fatal(err)
	}
	snap := buf.Bytes()
	f.Add(snap, false)
	for _, flip := range []int{8, len(snap) / 2, len(snap) - 9} {
		bad := append([]byte(nil), snap...)
		bad[flip] ^= 0x40
		f.Add(bad, false)
		f.Add(bad, true)
	}
	f.Add(snap[:len(snap)-20], false)
	f.Add(snap[:len(snap)-20], true)
	f.Add(snap[:10], false)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		o := New(w.DB, cands)
		if reseal && len(data) >= 28 {
			data = append([]byte(nil), data...)
			copy(data, snapshotMagic[:])
			payload := data[8 : len(data)-8]
			binary.LittleEndian.PutUint64(payload, o.Fingerprint())
			binary.LittleEndian.PutUint64(data[len(data)-8:], fnvBytes(payload))
		}
		n, err := o.LoadSnapshot(bytes.NewReader(data), w)
		if err != nil && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("error %v does not wrap ErrSnapshotCorrupt", err)
		}
		if got := o.Stats().Entries; n < 0 || int64(n) != got {
			t.Fatalf("LoadSnapshot reported %d entries, cache holds %d", n, got)
		}
	})
}
