package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vt"
)

// Route implements sched.Router: it is the single egress point for every
// envelope a hosted component (or the engine itself) produces.
//
// Forward traffic (data, silence, calls, replies) goes to the wire's
// receiver; backward traffic (probes, replay requests, acks) goes to the
// wire's sender. Data-bearing envelopes on wires between components are
// appended to the wire's replay buffer before delivery, so replays and
// reconnects can re-send them.
func (e *Engine) Route(env msg.Envelope) {
	w := e.tp.Wire(env.Wire)
	switch env.Kind {
	case msg.KindData, msg.KindCallRequest:
		if w.To != topo.External {
			e.buffers.append(env)
		}
		e.forward(w, env)
	case msg.KindCallReply:
		e.buffers.appendReply(env)
		e.forward(w, env)
	case msg.KindSilence:
		e.forward(w, env)
	case msg.KindProbe:
		e.backward(w, env)
	case msg.KindReplayRequest, msg.KindAck:
		e.backward(w, env)
	}
}

// forward delivers toward the wire's receiver.
func (e *Engine) forward(w *topo.Wire, env msg.Envelope) {
	if w.To == topo.External {
		if w.Kind == topo.WireSink && env.IsMessage() {
			if sinks := e.sinks.Load(); sinks != nil {
				if fn := (*sinks)[w.ID]; fn != nil {
					fn(env)
				}
			}
		}
		return
	}
	if h, ok := e.byID[w.To]; ok {
		h.sch.Deliver(env)
		return
	}
	if env.Kind == msg.KindSilence {
		e.peers.sendSilence(e.tp.EngineOf(w.To), env)
		return
	}
	e.peers.send(e.tp.EngineOf(w.To), env)
}

// backward delivers toward the wire's sender.
func (e *Engine) backward(w *topo.Wire, env msg.Envelope) {
	if w.From == topo.External {
		// A probe for a source wire: the source answers with its current
		// silence knowledge. (Replay of source wires is WAL-driven and
		// handled at restore time, not via requests.)
		if env.Kind == msg.KindProbe {
			e.answerSourceProbe(w)
		}
		return
	}
	if _, ok := e.byID[w.From]; ok {
		e.dispatchLocal(w, env)
		return
	}
	e.peers.send(e.tp.EngineOf(w.From), env)
}

// dispatchLocal hands an envelope to its handler on this engine: schedulers
// for wire traffic, the engine itself for recovery-protocol control.
func (e *Engine) dispatchLocal(w *topo.Wire, env msg.Envelope) {
	switch env.Kind {
	case msg.KindReplayRequest:
		e.serveReplay(env)
	case msg.KindAck:
		e.handleAck(env)
	default: // probes
		if h, ok := e.byID[w.From]; ok {
			h.sch.Deliver(env)
		}
	}
}

// deliverInbound dispatches an envelope received from a peer connection.
func (e *Engine) deliverInbound(env msg.Envelope) {
	if int(env.Wire) < 0 || int(env.Wire) >= len(e.tp.Wires()) {
		return // malformed
	}
	w := e.tp.Wire(env.Wire)
	switch env.Kind {
	case msg.KindProbe:
		if h, ok := e.byID[w.From]; ok {
			h.sch.Deliver(env)
		}
	case msg.KindReplayRequest:
		e.serveReplay(env)
	case msg.KindAck:
		e.handleAck(env)
	case msg.KindData, msg.KindSilence, msg.KindCallRequest, msg.KindCallReply:
		if h, ok := e.byID[w.To]; ok {
			h.sch.Deliver(env)
		}
	}
}

// serveReplay re-sends buffered envelopes of a wire from the requested
// sequence number (paper §II.F.4: "the sender or senders will be prompted
// to resend the range of ticks for which there is a gap").
func (e *Engine) serveReplay(req msg.Envelope) {
	resent := e.buffers.from(req.Wire, req.Seq)
	e.metrics.Registry().Counter(trace.MetricReplayServes,
		"Replay-range requests served from replay buffers.",
		trace.L("wire", sched.WireName(e.tp, e.tp.Wire(req.Wire)))).Inc()
	e.rec.Record(trace.Event{Kind: trace.EvReplayServe, VT: vt.Never, Wire: req.Wire, MsgSeq: req.Seq,
		Note: fmt.Sprintf("resent %d buffered envelopes", len(resent))})
	for _, env := range resent {
		w := e.tp.Wire(env.Wire)
		e.forward(w, env)
	}
}

// noteReplayRequest accounts one replay-range request this engine issues.
func (e *Engine) noteReplayRequest(wid msg.WireID, fromSeq uint64) {
	e.metrics.Registry().Counter(trace.MetricReplayRequests,
		"Replay-range requests issued to senders.",
		trace.L("wire", sched.WireName(e.tp, e.tp.Wire(wid)))).Inc()
	e.rec.Record(trace.Event{Kind: trace.EvReplayRequest, VT: vt.Never, Wire: wid, MsgSeq: fromSeq})
}

// handleAck trims a wire's replay buffer after the receiver durably
// checkpointed delivery (stability acknowledgement).
func (e *Engine) handleAck(ack msg.Envelope) {
	e.buffers.trim(ack.Wire, ack.Seq)
}

// resendBufferedReply answers a duplicate call request from a recovering
// caller by re-sending the buffered reply with the matching call ID.
func (e *Engine) resendBufferedReply(req msg.Envelope) {
	w := e.tp.Wire(req.Wire)
	if w.Peer < 0 {
		return
	}
	if reply, ok := e.buffers.replyByCallID(w.Peer, req.CallID); ok {
		e.forward(e.tp.Wire(reply.Wire), reply)
	}
}

// repairGaps scans hosted components for sequence gaps (messages parked in
// holdback) and asks the senders to replay the missing ranges.
func (e *Engine) repairGaps() {
	for _, h := range e.sortedHosted() {
		for wid, fromSeq := range h.sch.Gaps() {
			w := e.tp.Wire(wid)
			if w.From == topo.External {
				// A gap on a source wire: re-inject the missing range from
				// the stable input log.
				if src := e.sourceByWire(wid); src != nil {
					recs, err := e.log.Inputs(src.name, fromSeq)
					if err == nil {
						for _, r := range recs {
							env := msg.NewData(wid, r.Seq, r.VT, r.Payload)
							env.Origin = msg.NewOrigin(wid, r.Seq)
							env.Trace = e.metrics.Spans().DecideAt(env.Origin, r.VT)
							src.target.sch.Deliver(env)
						}
					}
				}
				continue
			}
			if local, ok := e.byID[w.From]; ok {
				_ = local // local wires deliver synchronously; a local gap
				// can only appear after a restore, repaired from buffers.
				for _, env := range e.buffers.from(wid, fromSeq) {
					e.forward(w, env)
				}
				continue
			}
			e.noteReplayRequest(wid, fromSeq)
			e.peers.send(e.tp.EngineOf(w.From), msg.NewReplayRequest(wid, fromSeq))
		}
	}
}

// sortedHosted returns hosted components in name order (deterministic
// iteration for loops and checkpoints).
func (e *Engine) sortedHosted() []*hosted {
	out := make([]*hosted, 0, len(e.comps))
	for _, h := range e.comps {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// bufferSet holds per-wire replay buffers: data/call envelopes ordered by
// sequence number, call replies ordered by call ID. Buffers are trimmed by
// stability acks and are included in checkpoints so a restored engine can
// still serve replay requests for pre-crash sends.
//
// Wires whose receiver is the external world (sinks) have no buffer:
// nothing can request a replay on them and no ack would ever trim one, so
// Route never appends them and restore drops them from older checkpoints.
type bufferSet struct {
	mu    sync.Mutex
	wires map[msg.WireID]*wireBuf
	n     int // envelopes buffered across all wires
}

// chunkLen is the number of envelopes per replay-buffer chunk (a power of
// two; a chunk is ~26 KB, inside the allocator's small size classes).
const chunkLen = 256

// wireBuf is one wire's replay buffer: a deque of fixed-size chunks ordered
// by key. Appending never moves or clears what is already buffered, and
// trimming drops whole chunks and advances head instead of copying the
// survivors.
type wireBuf struct {
	chunks []*[chunkLen]msg.Envelope
	head   int  // offset of the oldest envelope within chunks[0]
	n      int  // buffered envelopes
	byCall bool // a call-reply wire: keyed by CallID rather than Seq
}

func (wb *wireBuf) at(i int) *msg.Envelope {
	i += wb.head
	return &wb.chunks[i/chunkLen][i%chunkLen]
}

func (wb *wireBuf) key(env *msg.Envelope) uint64 {
	if wb.byCall {
		return env.CallID
	}
	return env.Seq
}

// push appends env unless its key does not advance the buffer: a component
// re-executing after a restore regenerates sends that are already buffered.
func (wb *wireBuf) push(env msg.Envelope) bool {
	if wb.n > 0 && wb.key(&env) <= wb.key(wb.at(wb.n-1)) {
		return false
	}
	if wb.head+wb.n == len(wb.chunks)*chunkLen {
		wb.chunks = append(wb.chunks, new([chunkLen]msg.Envelope))
	}
	wb.n++
	*wb.at(wb.n - 1) = env
	return true
}

// search returns the index of the first envelope whose key satisfies pred,
// which must be monotone in the key.
func (wb *wireBuf) search(pred func(key uint64) bool) int {
	return sort.Search(wb.n, func(i int) bool { return pred(wb.key(wb.at(i))) })
}

// dropFront discards the oldest k <= n envelopes.
func (wb *wireBuf) dropFront(k int) {
	head := wb.head + k
	whole := head / chunkLen // chunks entirely behind the new head
	if whole < len(wb.chunks) {
		// Release the payloads trimmed out of the chunk that stays in front.
		from := 0
		if whole == 0 {
			from = wb.head
		}
		clear(wb.chunks[whole][from : head%chunkLen])
	}
	rest := copy(wb.chunks, wb.chunks[whole:])
	clear(wb.chunks[rest:])
	wb.chunks = wb.chunks[:rest]
	wb.head = head % chunkLen
	wb.n -= k
}

// appendTo appends the buffered envelopes from index i on to dst.
func (wb *wireBuf) appendTo(dst []msg.Envelope, i int) []msg.Envelope {
	for i < wb.n {
		at := wb.head + i
		c := wb.chunks[at/chunkLen][at%chunkLen:]
		if len(c) > wb.n-i {
			c = c[:wb.n-i]
		}
		dst = append(dst, c...)
		i += len(c)
	}
	return dst
}

func newBufferSet() *bufferSet {
	return &bufferSet{wires: make(map[msg.WireID]*wireBuf)}
}

func (b *bufferSet) push(env msg.Envelope, byCall bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wb := b.wires[env.Wire]
	if wb == nil {
		wb = &wireBuf{byCall: byCall}
		b.wires[env.Wire] = wb
	}
	if wb.push(env) {
		b.n++
	}
}

func (b *bufferSet) append(env msg.Envelope) { b.push(env, false) }

func (b *bufferSet) appendReply(env msg.Envelope) { b.push(env, true) }

// from returns buffered envelopes of the wire with Seq >= fromSeq.
func (b *bufferSet) from(w msg.WireID, fromSeq uint64) []msg.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	wb := b.wires[w]
	if wb == nil {
		return nil
	}
	i := wb.search(func(seq uint64) bool { return seq >= fromSeq })
	return wb.appendTo(make([]msg.Envelope, 0, wb.n-i), i)
}

// unacked returns every buffered envelope of every wire (for full resend on
// reconnect); wires are visited in ID order.
func (b *bufferSet) unacked() []msg.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	wires := make([]msg.WireID, 0, len(b.wires))
	for w := range b.wires {
		wires = append(wires, w)
	}
	slices.Sort(wires)
	out := make([]msg.Envelope, 0, b.n)
	for _, w := range wires {
		out = b.wires[w].appendTo(out, 0)
	}
	return out
}

func (b *bufferSet) replyByCallID(w msg.WireID, callID uint64) (msg.Envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wb := b.wires[w]
	if wb == nil || !wb.byCall {
		return msg.Envelope{}, false
	}
	if i := wb.search(func(id uint64) bool { return id >= callID }); i < wb.n && wb.at(i).CallID == callID {
		return *wb.at(i), true
	}
	return msg.Envelope{}, false
}

// count returns the number of buffered envelopes on a wire.
func (b *bufferSet) count(w msg.WireID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.countLocked(w)
}

func (b *bufferSet) countLocked(w msg.WireID) int {
	if wb := b.wires[w]; wb != nil {
		return wb.n
	}
	return 0
}

// total returns the number of buffered envelopes across all wires — the
// quantity ShedBufferedLimit bounds.
func (b *bufferSet) total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// trim discards the wire's envelopes with key (Seq, or CallID on a
// call-reply wire) <= through.
func (b *bufferSet) trim(w msg.WireID, through uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wb := b.wires[w]
	if wb == nil {
		return
	}
	k := wb.search(func(key uint64) bool { return key > through })
	b.n -= k
	wb.dropFront(k)
}

// snapshot captures all buffers for inclusion in a checkpoint.
func (b *bufferSet) snapshot() map[msg.WireID][]msg.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[msg.WireID][]msg.Envelope, len(b.wires))
	for w, wb := range b.wires {
		if wb.n > 0 {
			out[w] = wb.appendTo(make([]msg.Envelope, 0, wb.n), 0)
		}
	}
	return out
}

// restore reinstates checkpointed buffers.
func (b *bufferSet) restore(tp *topo.Topology, bufs map[msg.WireID][]msg.Envelope) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for w, buf := range bufs {
		if int(w) < 0 || int(w) >= len(tp.Wires()) || tp.Wire(w).To == topo.External {
			continue
		}
		wb := &wireBuf{byCall: tp.Wire(w).Kind == topo.WireCallReply}
		for _, env := range buf {
			wb.push(env)
		}
		b.n += wb.n - b.countLocked(w)
		b.wires[w] = wb
	}
}
