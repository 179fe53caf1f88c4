package whatif

// Warm-start cache snapshots: WriteSnapshot serializes the resident what-if
// cost cache and LoadSnapshot rehydrates one, so a restarted tuning daemon
// answers its first jobs from a warm cache instead of recomputing the cost
// model from scratch.
//
// The codec must survive the one thing that is NOT restart-stable: interned
// query ids (qids are assigned in interning order, which depends on job
// arrival order). Entries are therefore keyed on the workload's stable query
// ID strings plus two fingerprints:
//
//   - Optimizer.Fingerprint() covers the schema and the candidate universe —
//     cached fingerprints are relevance-projected against candidate
//     ordinals, so any change to either invalidates every entry at once.
//   - a per-query structural hash (queryHash) covers the query's refs,
//     predicates, selectivities, and joins — a query that kept its ID but
//     changed shape or statistics silently drops its entries.
//
// Format (all integers little-endian):
//
//	magic     "ITWS0002" (8 bytes; the digits are the format version —
//	          version 2 changed the configuration fingerprint hash)
//	payload:
//	  fingerprint  u64
//	  queryCount   u32
//	  per query, sorted by query ID:
//	    idLen u16 | id bytes | queryHash u64 | entryCount u32
//	    entryCount × { configFP u64 | costBits u64 }, sorted by configFP
//	  checksum   u64   FNV-1a over the payload bytes
//
// Loading is forgiving by design: wrong magic/version or a mismatched
// fingerprint return (0, nil) — the snapshot is merely stale, a cold boot is
// the correct outcome. A checksum or framing failure returns an error so
// operators learn about corruption, but callers (the daemon) log and
// continue cold. Loaded entries touch no hit/miss counters and respect a
// configured SetCacheBytes bound.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"indextune/internal/workload"
)

// snapshotMagic identifies the snapshot format and version. Readers skip
// (rather than reject) any other magic, so format bumps invalidate old
// snapshot files gracefully.
var snapshotMagic = [8]byte{'I', 'T', 'W', 'S', '0', '0', '0', '2'}

// ErrSnapshotCorrupt reports a snapshot whose checksum or framing is
// damaged — as opposed to one that is merely stale, which loads as a no-op.
var ErrSnapshotCorrupt = errors.New("whatif: corrupt cache snapshot")

// fnvStream is an incremental FNV-1a accumulator used by the fingerprints.
type fnvStream uint64

func (h *fnvStream) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime64
	}
	// Terminator byte so ("ab","c") and ("a","bc") hash differently.
	x ^= 0xff
	x *= fnvPrime64
	*h = fnvStream(x)
}

func (h *fnvStream) num(v uint64) {
	x := uint64(*h)
	x ^= v
	x *= fnvPrime64
	*h = fnvStream(x)
}

// Fingerprint hashes the optimizer's schema (tables, cardinalities, column
// statistics) and candidate universe (definitions in ordinal order). Two
// optimizers with equal fingerprints assign identical meaning to relevance-
// projected configuration fingerprints, which is exactly what snapshot
// entries need to stay valid across a restart.
func (o *Optimizer) Fingerprint() uint64 {
	h := fnvStream(fnvOffset64)
	h.str(o.DB.Name)
	tables := o.DB.Tables()
	h.num(uint64(len(tables)))
	for _, t := range tables {
		h.str(t.Name)
		h.num(uint64(t.Rows))
		h.num(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			h.str(c.Name)
			h.num(uint64(c.NDV))
			h.num(uint64(c.Width))
		}
	}
	h.num(uint64(len(o.Candidates)))
	for i := range o.Candidates {
		ix := &o.Candidates[i]
		h.str(ix.Table)
		h.num(uint64(len(ix.Key)))
		for _, k := range ix.Key {
			h.str(k)
		}
		h.num(uint64(len(ix.Include)))
		for _, k := range ix.Include {
			h.str(k)
		}
	}
	return uint64(h)
}

// queryHash hashes a query's cost-relevant structure: every field the cost
// model reads (refs, predicates with operator class and selectivity, join
// graph, needed/sort columns). Weight is excluded — it scales workload
// aggregation in the session layer, never a per-pair cost.
func queryHash(q *workload.Query) uint64 {
	h := fnvStream(fnvOffset64)
	h.num(uint64(len(q.Refs)))
	for ri := range q.Refs {
		r := &q.Refs[ri]
		h.str(r.Table)
		h.num(uint64(len(r.Filters)))
		for _, p := range r.Filters {
			h.str(p.Column)
			h.num(uint64(p.Op))
			h.num(math.Float64bits(p.Selectivity))
		}
		h.num(uint64(len(r.JoinCols)))
		for _, c := range r.JoinCols {
			h.str(c)
		}
		h.num(uint64(len(r.Need)))
		for _, c := range r.Need {
			h.str(c)
		}
		h.num(uint64(len(r.SortCols)))
		for _, c := range r.SortCols {
			h.str(c)
		}
	}
	h.num(uint64(len(q.Joins)))
	for _, j := range q.Joins {
		h.num(uint64(j.LeftRef))
		h.str(j.LeftCol)
		h.num(uint64(j.RightRef))
		h.str(j.RightCol)
	}
	return uint64(h)
}

// fnvBytes hashes a byte slice with FNV-1a (the payload checksum).
func fnvBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// snapRec is one resident cache entry staged for serialization.
type snapRec struct {
	qid  uint32
	fp   uint64
	cost float64
}

// WriteSnapshot serializes every resident cache entry belonging to a query
// of wl. Entries for queries outside wl (or interned queries the workload no
// longer names) are dropped — they could not be re-keyed on load. The output
// is deterministic for a given cache state: entries are sorted by (query ID,
// configuration fingerprint) regardless of shard-map iteration order.
func (o *Optimizer) WriteSnapshot(w io.Writer, wl *workload.Workload) error {
	type qmeta struct {
		id   string
		hash uint64
	}
	metaByQID := make(map[uint32]qmeta, len(wl.Queries))
	for _, q := range wl.Queries {
		in := o.info(q)
		metaByQID[in.qid] = qmeta{id: q.ID, hash: queryHash(q)}
	}

	// Flatten the shards into one record slice, then sort: shard maps
	// iterate in arbitrary order and the snapshot must be byte-stable.
	var recs []snapRec
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.RLock()
		for p, idx := range sh.m {
			recs = append(recs, snapRec{qid: p.QID, fp: p.FP, cost: sh.entries[idx].cost})
		}
		sh.mu.RUnlock()
	}
	kept := recs[:0]
	for _, r := range recs {
		if _, ok := metaByQID[r.qid]; ok {
			kept = append(kept, r)
		}
	}
	recs = kept
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].qid != recs[j].qid {
			return metaByQID[recs[i].qid].id < metaByQID[recs[j].qid].id
		}
		return recs[i].fp < recs[j].fp
	})

	var buf bytes.Buffer
	var scratch [8]byte
	le := binary.LittleEndian
	w64 := func(v uint64) {
		le.PutUint64(scratch[:], v)
		buf.Write(scratch[:])
	}
	w32 := func(v uint32) {
		le.PutUint32(scratch[:4], v)
		buf.Write(scratch[:4])
	}
	w16 := func(v uint16) {
		le.PutUint16(scratch[:2], v)
		buf.Write(scratch[:2])
	}

	w64(o.Fingerprint())
	groups := 0
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].qid == recs[i].qid {
			j++
		}
		groups++
		i = j
	}
	w32(uint32(groups))
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].qid == recs[i].qid {
			j++
		}
		mt := metaByQID[recs[i].qid]
		if len(mt.id) > math.MaxUint16 {
			return fmt.Errorf("whatif: query ID %q too long for snapshot", mt.id[:32]+"…")
		}
		w16(uint16(len(mt.id)))
		buf.WriteString(mt.id)
		w64(mt.hash)
		w32(uint32(j - i))
		for _, r := range recs[i:j] {
			w64(r.fp)
			w64(math.Float64bits(r.cost))
		}
		i = j
	}

	if _, err := w.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	le.PutUint64(scratch[:], fnvBytes(buf.Bytes()))
	_, err := w.Write(scratch[:])
	return err
}

// LoadSnapshot rehydrates cache entries from a snapshot written by
// WriteSnapshot, returning the number of entries inserted.
//
//   - Wrong magic/version or a non-matching schema fingerprint: (0, nil) —
//     the snapshot is stale, a cold start is correct.
//   - Checksum or framing damage: an error wrapping ErrSnapshotCorrupt; the
//     cache keeps whatever was inserted before the damage was detected.
//   - Unknown query IDs or changed query structure: those entries are
//     skipped silently; the rest load.
//
// Loading mutates only the cache: hit/miss/compute counters stay untouched
// (a warmed cache then reports its warmth as hits on first use, which is
// what the daemon's /stats endpoint surfaces). Pairs already cached or
// currently in flight are left alone, and a SetCacheBytes bound is enforced
// after the load, so a snapshot can never push residency over capacity.
func (o *Optimizer) LoadSnapshot(r io.Reader, wl *workload.Workload) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	const overhead = 8 + 8 + 4 + 8 // magic + fingerprint + queryCount + checksum
	if len(data) < overhead || !bytes.Equal(data[:8], snapshotMagic[:]) {
		return 0, nil
	}
	le := binary.LittleEndian
	payload := data[8 : len(data)-8]
	if fnvBytes(payload) != le.Uint64(data[len(data)-8:]) {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	if le.Uint64(payload[:8]) != o.Fingerprint() {
		return 0, nil
	}

	byID := make(map[string]*workload.Query, len(wl.Queries))
	for _, q := range wl.Queries {
		byID[q.ID] = q
	}

	loaded := 0
	off := 12
	groups := int(le.Uint32(payload[8:12]))
	for g := 0; g < groups; g++ {
		if off+2 > len(payload) {
			return loaded, fmt.Errorf("%w: truncated query header", ErrSnapshotCorrupt)
		}
		idLen := int(le.Uint16(payload[off:]))
		off += 2
		if off+idLen+12 > len(payload) {
			return loaded, fmt.Errorf("%w: truncated query header", ErrSnapshotCorrupt)
		}
		id := string(payload[off : off+idLen])
		off += idLen
		qh := le.Uint64(payload[off:])
		off += 8
		n := int(le.Uint32(payload[off:]))
		off += 4
		if n < 0 || off+n*16 > len(payload) {
			return loaded, fmt.Errorf("%w: truncated entry block", ErrSnapshotCorrupt)
		}
		var in *queryInfo
		if q := byID[id]; q != nil && queryHash(q) == qh {
			in = o.info(q)
		}
		for k := 0; k < n; k++ {
			fp := le.Uint64(payload[off:])
			cost := math.Float64frombits(le.Uint64(payload[off+8:]))
			off += 16
			if in == nil {
				continue
			}
			p := Pair{QID: in.qid, FP: fp}
			sh := o.shardFor(p)
			sh.mu.Lock()
			if _, exists := sh.m[p]; !exists {
				if _, busy := sh.inflight[p]; !busy {
					sh.insert(p, cost)
					loaded++
				}
			}
			sh.mu.Unlock()
		}
	}
	if off != len(payload) {
		return loaded, fmt.Errorf("%w: trailing bytes", ErrSnapshotCorrupt)
	}
	var evicted int64
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.Lock()
		evicted += sh.evict()
		sh.mu.Unlock()
	}
	if evicted != 0 {
		o.evictions.Add(evicted)
	}
	return loaded, nil
}
