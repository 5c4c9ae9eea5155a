package obs

import "sort"

// ShardRec is one kernel shard's span ring. It is written only by code
// executing on that shard (or by the driver between runs), so it needs no
// locking and its span order follows the shard's own event stream. All
// methods are nil-safe: instrumented layers
// keep a possibly-nil *ShardRec and call Record unconditionally, so the
// untraced hot path costs one nil check.
type ShardRec struct {
	shard   int
	cap     int
	spans   []Span
	next    int    // ring write position once len(spans) == cap
	seq     uint64 // total spans ever recorded
	flowSeq uint64 // flow ids handed out by NextFlow
	dropped uint64 // spans overwritten after the ring filled
}

// Record appends a span to the ring, overwriting the oldest span when full.
func (r *ShardRec) Record(sp Span) {
	if r == nil {
		return
	}
	sp.Shard = int32(r.shard)
	sp.seq = r.seq
	r.seq++
	if len(r.spans) < r.cap {
		r.spans = append(r.spans, sp)
		return
	}
	r.spans[r.next] = sp
	r.next = (r.next + 1) % r.cap
	r.dropped++
}

// NextFlow allocates a flow-edge id unique across shards: the recording
// shard in the high bits, a per-shard counter below. Deterministic because
// each shard's counter advances only with that shard's own event stream.
// Returns 0 (no flow) on a nil receiver.
func (r *ShardRec) NextFlow() uint64 {
	if r == nil {
		return 0
	}
	r.flowSeq++
	return uint64(r.shard+1)<<40 | r.flowSeq
}

// Len reports how many spans the ring currently holds.
func (r *ShardRec) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Dropped reports how many spans were overwritten after the ring filled.
func (r *ShardRec) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Recorder is the per-run trace: one span ring per kernel shard.
type Recorder struct {
	shards []*ShardRec
}

// NewRecorder builds a recorder with one ring of the given capacity per
// kernel shard.
func NewRecorder(shards, cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	rec := &Recorder{shards: make([]*ShardRec, shards)}
	for i := range rec.shards {
		rec.shards[i] = &ShardRec{shard: i, cap: cap}
	}
	return rec
}

// Shard returns shard i's ring. Nil-safe: a nil recorder yields a nil
// *ShardRec, whose Record is a no-op.
func (rec *Recorder) Shard(i int) *ShardRec {
	if rec == nil {
		return nil
	}
	return rec.shards[i]
}

// NumShards reports how many rings the recorder holds.
func (rec *Recorder) NumShards() int {
	if rec == nil {
		return 0
	}
	return len(rec.shards)
}

// Dropped sums the overwritten-span counts across shards.
func (rec *Recorder) Dropped() uint64 {
	var n uint64
	if rec == nil {
		return 0
	}
	for _, r := range rec.shards {
		n += r.Dropped()
	}
	return n
}

// Merged returns every recorded span in the canonical total order
// (start time, shard, per-shard sequence). The order is a pure function of
// the simulation — per-shard sequences follow each shard's deterministic
// event stream — so the merged trace is identical between serial and
// shaped environments and at any GOMAXPROCS.
func (rec *Recorder) Merged() []Span {
	if rec == nil {
		return nil
	}
	var out []Span
	for _, r := range rec.shards {
		out = append(out, r.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.seq < b.seq
	})
	return out
}
