package sched

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/vt"
)

// WireName renders a wire's stable human-readable label for metrics:
// "w3:sender1.out>merger.s1" ("ext" stands in for the external world on
// source and sink wires).
func WireName(tp *topo.Topology, w *topo.Wire) string {
	from, to := "ext", "ext"
	if w.From != topo.External {
		from = tp.Component(w.From).Name
	}
	if w.To != topo.External {
		to = tp.Component(w.To).Name
	}
	if w.FromPort != "" {
		from += "." + w.FromPort
	}
	if w.ToPort != "" {
		to += "." + w.ToPort
	}
	return fmt.Sprintf("%s:%s>%s", w.ID, from, to)
}

// DefaultHoldbackLimit caps how many out-of-gap envelopes one input wire
// parks awaiting a sequence-gap fill. Arrivals beyond the cap are dropped
// — losslessly, because the gap-repair loop re-requests everything from
// the delivery cursor, dropped suffix included.
const DefaultHoldbackLimit = 4096

// acceptVerdict classifies what inWire.accept did with an envelope.
type acceptVerdict int8

const (
	// acceptQueued: the message joined the queue (or the holdback area).
	acceptQueued acceptVerdict = iota
	// acceptDuplicate: seq already delivered, queued, or held back.
	acceptDuplicate
	// acceptOverflow: the holdback area is full; the message was dropped
	// and will be recovered by a replay request when the gap repairs.
	acceptOverflow
)

// inWire is the receiver-side state of one input wire: the pending
// messages, the silence watermark, the next expected sequence number (for
// duplicate discard and gap hold-back), and the delivery cursor restored
// from checkpoints.
type inWire struct {
	w *topo.Wire

	// q holds deliverable messages in sequence order, which — because
	// per-wire virtual times are strictly increasing and the transport is
	// FIFO — is also virtual-time order. It is a ring buffer so pop is O(1).
	q ring

	// holdback parks messages that arrived with a sequence gap (possible
	// transiently around reconnects) until the gap fills. Bounded by the
	// scheduler's holdback limit.
	holdback map[uint64]queued

	// watermark: the sender will never send another message on this wire
	// with VT <= watermark.
	watermark vt.Time

	// nextSeq is the next sequence number expected from the sender.
	nextSeq uint64

	// pendPromise/pendPromiseSeq park a silence promise whose data-prefix
	// attestation (Envelope.Seq on a silence envelope) outruns nextSeq: the
	// sender claims to have emitted data this receiver has not contiguously
	// received, so the data was lost in flight (crash replay, partition) and
	// will be re-sent. Applying such a promise immediately would advance the
	// watermark past the missing messages and let the merge commit other
	// wires ahead of them. The promise is applied by enqueue once the prefix
	// fills in; meanwhile gapFrom reports the attested range as a repairable
	// gap. pendPromiseSeq == 0 means nothing is parked.
	pendPromise    vt.Time
	pendPromiseSeq uint64

	// lastVT is the virtual time of the last delivered message.
	lastVT vt.Time

	// probe is the target of the curiosity probe outstanding on the wire
	// (vt.Never if none). It is answered once the watermark reaches it;
	// until then no further probe goes up the wire (see probeLocked).
	probe vt.Time

	// Merge-index bookkeeping, owned by the scheduler's frontier (see
	// merge.go): the cached sort key, the heap slot, and which heap.
	hkey vt.Time
	hpos int
	hset int8

	obs    any        // the observer's handle for the wire; nil when off
	counts WireCounts // guarded by the scheduler lock
}

// queued pairs an envelope with its real-time arrival index (for
// out-of-real-time-order accounting) and, when the envelope's origin is
// span-sampled, its enqueue wall-clock time as unix nanoseconds (zero
// otherwise). Nanos rather than time.Time keeps the struct pointer-free
// and 16 bytes smaller — queued is copied through ring buffers on the
// delivery hot path, and the sampled-off overhead budget is ~2%.
type queued struct {
	env     msg.Envelope
	arrival uint64
	enq     int64
}

func newInWire(w *topo.Wire) *inWire {
	return &inWire{
		w:           w,
		holdback:    make(map[uint64]queued),
		watermark:   vt.Never,
		nextSeq:     1,
		lastVT:      vt.Never,
		pendPromise: vt.Never,
		probe:       vt.Never,
		hpos:        -1,
		counts:      WireCounts{Wire: w.ID, In: true},
	}
}

// accept ingests a data or call-request envelope. Duplicates (seq already
// delivered or queued) are rejected. Messages beyond a sequence gap are
// held back — up to limit of them — and released in order when the gap
// fills; beyond the limit they are dropped for later replay.
func (in *inWire) accept(env msg.Envelope, arrival uint64, enq int64, limit int) acceptVerdict {
	switch {
	case env.Seq < in.nextSeq:
		return acceptDuplicate // duplicate of something already delivered/queued
	case env.Seq > in.nextSeq:
		if _, dup := in.holdback[env.Seq]; dup {
			return acceptDuplicate
		}
		if limit > 0 && len(in.holdback) >= limit {
			return acceptOverflow
		}
		in.holdback[env.Seq] = queued{env: env, arrival: arrival, enq: enq}
		return acceptQueued
	}
	in.enqueue(queued{env: env, arrival: arrival, enq: enq})
	// Release any consecutive held-back successors.
	for {
		q, ok := in.holdback[in.nextSeq]
		if !ok {
			break
		}
		delete(in.holdback, in.nextSeq)
		in.enqueue(q)
	}
	return acceptQueued
}

func (in *inWire) enqueue(q queued) {
	in.q.push(q)
	in.nextSeq = q.env.Seq + 1
	// A data message at VT t implies the sender is silent through t.
	if q.env.VT > in.watermark {
		in.watermark = q.env.VT
	}
	// A parked silence promise becomes applicable once the data prefix it
	// attested to has been contiguously received.
	if in.pendPromiseSeq != 0 && in.nextSeq > in.pendPromiseSeq {
		if in.pendPromise > in.watermark {
			in.watermark = in.pendPromise
		}
		in.pendPromiseSeq = 0
		in.pendPromise = vt.Never
	}
}

// head returns the earliest pending message, or nil.
func (in *inWire) head() *queued {
	return in.q.peek()
}

// pop removes and returns the head. Caller must have checked head != nil.
func (in *inWire) pop() queued {
	q := in.q.pop()
	in.lastVT = q.env.VT
	return q
}

// gapFrom returns the first missing sequence number if messages are parked
// behind a gap, and whether such a gap exists. A parked silence promise
// counts as a gap too: its attestation proves the sender emitted data
// through pendPromiseSeq, so a trailing cursor means messages were lost
// with nothing behind them to land in holdback (a tail gap that would
// otherwise be invisible to the repair loop).
func (in *inWire) gapFrom() (uint64, bool) {
	if len(in.holdback) > 0 {
		return in.nextSeq, true
	}
	if in.pendPromiseSeq >= in.nextSeq && in.pendPromiseSeq != 0 {
		return in.nextSeq, true
	}
	return 0, false
}

// ring is a growable circular queue of queued messages. Pop is O(1) — the
// old slice-shift pop made every delivery O(queue length).
type ring struct {
	buf  []queued // capacity is always a power of two (mask = len-1)
	head int
	n    int
}

func (r *ring) push(q queued) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = q
	r.n++
}

func (r *ring) peek() *queued {
	if r.n == 0 {
		return nil
	}
	return &r.buf[r.head]
}

func (r *ring) pop() queued {
	q := r.buf[r.head]
	r.buf[r.head] = queued{} // release payload reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return q
}

func (r *ring) grow() {
	next := make([]queued, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}

// outWire is the sender-side state of one output wire: the sequence
// counter and the last stamped virtual time (both checkpointed so that a
// recovered component regenerates identical sequence numbers and virtual
// times).
type outWire struct {
	w          *topo.Wire
	seq        uint64
	lastSentVT vt.Time

	obs    any        // the observer's handle for the wire; nil when off
	counts WireCounts // guarded by the scheduler lock
}

func newOutWire(w *topo.Wire, obs any) *outWire {
	return &outWire{w: w, lastSentVT: vt.Never, obs: obs, counts: WireCounts{Wire: w.ID}}
}

// nextData stamps the next data (or call) envelope metadata on the wire.
func (ow *outWire) next(t vt.Time) (seq uint64, stamped vt.Time) {
	// Per-wire virtual times must be strictly increasing; nudge forward if
	// an estimator produced a non-advancing stamp.
	if ow.lastSentVT != vt.Never && t <= ow.lastSentVT {
		t = ow.lastSentVT.Add(1)
	}
	ow.seq++
	ow.lastSentVT = t
	return ow.seq, t
}
