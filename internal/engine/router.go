package engine

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/deque"
	"repro/internal/msg"
	"repro/internal/topo"
)

// wireRoute is where this engine sends one wire's traffic, resolved once in
// New: the wire's receiver, for forward traffic (data, silence, calls,
// replies), and its sender, for backward traffic (probes, replay requests,
// acks) — each either a component hosted here or the peer engine hosting
// it — and, on a sink wire, the consumer callback Sink registers.
type wireRoute struct {
	w                *topo.Wire
	to, from         *hosted
	toPeer, fromPeer *peer
	sink             atomic.Pointer[func(msg.Envelope)]
}

// resolveRoutes builds the route table, one entry per wire.
func (e *Engine) resolveRoutes() {
	e.routes = make([]wireRoute, len(e.tp.Wires()))
	end := func(id topo.ComponentID) (*hosted, *peer) {
		if id == topo.External {
			return nil, nil
		}
		if h, ok := e.byID[id]; ok {
			return h, nil
		}
		return nil, e.peers.needed[e.tp.EngineOf(id)]
	}
	for i, w := range e.tp.Wires() {
		r := &e.routes[i]
		r.w = w
		r.to, r.toPeer = end(w.To)
		r.from, r.fromPeer = end(w.From)
	}
}

// Route is every hosted scheduler's egress (sched.Config.RouteBatch): it
// takes each batch a component's step produced. The batch's data-bearing
// envelopes on wires between components join their replay buffers, under
// one lock, before any of it is delivered, so replays and reconnects can
// re-send them.
func (e *Engine) Route(envs []msg.Envelope) {
	e.buffers.appendBatch(e.tp, envs)
	e.dispatch(envs)
}

// dispatch hands envelopes, in order, to the ends of their wires: forward
// traffic to the receiver, backward traffic to the sender. Each run of
// consecutive messages for one hosted scheduler is delivered under one
// lock, and each run bound for one peer goes to the transport in one call.
// It is the one path for routed batches and for what a peer connection
// received.
func (e *Engine) dispatch(envs []msg.Envelope) {
	for len(envs) > 0 {
		h, pe := e.runOf(&envs[0])
		n := 1
		for n < len(envs) && (h != nil || pe != nil) {
			if h2, pe2 := e.runOf(&envs[n]); h2 != h || pe2 != pe {
				break
			}
			n++
		}
		switch {
		case h != nil:
			h.sch.DeliverRun(envs[:n])
		case pe != nil:
			e.peers.send(pe, envs[:n])
		default:
			e.deliver(envs[0])
		}
		envs = envs[n:]
	}
}

// runOf reports the run an envelope joins: messages (data and call
// requests) for a scheduler hosted here, or anything but a silence promise
// (which the peer set coalesces) bound for a peer engine. Neither (nil,
// nil) leaves the envelope to deliver.
func (e *Engine) runOf(env *msg.Envelope) (*hosted, *peer) {
	if uint(env.Wire) >= uint(len(e.routes)) {
		return nil, nil
	}
	r := &e.routes[env.Wire]
	switch env.Kind {
	case msg.KindData, msg.KindCallRequest:
		return r.to, r.toPeer
	case msg.KindCallReply:
		return nil, r.toPeer
	case msg.KindProbe, msg.KindReplayRequest, msg.KindAck:
		return nil, r.fromPeer
	}
	return nil, nil
}

// deliver hands one envelope that joins no run to the end of its wire on
// this engine: a hosted scheduler, the engine's own recovery protocol, a
// source answering a probe, a sink, or the peer set's promise coalescer.
func (e *Engine) deliver(env msg.Envelope) {
	if uint(env.Wire) >= uint(len(e.routes)) {
		return // malformed
	}
	r := &e.routes[env.Wire]
	switch env.Kind {
	case msg.KindData, msg.KindCallRequest, msg.KindCallReply, msg.KindSilence:
		switch {
		case r.to != nil:
			r.to.sch.Deliver(env)
		case r.toPeer != nil:
			e.peers.sendSilence(r.toPeer, env)
		case env.IsMessage():
			if fn := r.sink.Load(); fn != nil {
				(*fn)(env)
			}
		}
	case msg.KindProbe:
		switch {
		case r.from != nil:
			r.from.sch.Deliver(env)
		case r.w.From == topo.External:
			// A probe for a source wire: the source answers with its current
			// silence knowledge. (Replay of source wires is WAL-driven and
			// handled at restore time, not via requests.)
			e.answerSourceProbe(r.w)
		}
	case msg.KindReplayRequest:
		e.serveReplay(env)
	case msg.KindAck:
		e.handleAck(env)
	}
}

// serveReplay re-sends buffered envelopes of a wire from the requested
// sequence number (paper §II.F.4: "the sender or senders will be prompted
// to resend the range of ticks for which there is a gap").
func (e *Engine) serveReplay(req msg.Envelope) {
	resent := e.buffers.from(req.Wire, req.Seq)
	e.count(func(c *Counts) { bump(&c.ReplayServes, req.Wire) })
	if e.obs != nil {
		e.obs.ReplayServed(req.Wire, req.Seq, len(resent), false)
	}
	e.dispatch(resent)
}

// noteReplayRequest accounts one replay-range request this engine issues.
func (e *Engine) noteReplayRequest(wid msg.WireID, fromSeq uint64) {
	e.count(func(c *Counts) { bump(&c.ReplayRequests, wid) })
	if e.obs != nil {
		e.obs.ReplayRequested(wid, fromSeq)
	}
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
		e.dispatch([]msg.Envelope{reply})
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
							if e.obs != nil {
								env.Trace = e.obs.TraceMark(env.Origin)
							}
							src.target.sch.Deliver(env)
						}
					}
				}
				continue
			}
			if e.routes[wid].from != nil {
				// Local wires deliver synchronously; a local gap can only
				// appear after a restore, repaired from buffers.
				e.dispatch(e.buffers.from(wid, fromSeq))
				continue
			}
			e.noteReplayRequest(wid, fromSeq)
			e.dispatch([]msg.Envelope{msg.NewReplayRequest(wid, fromSeq)})
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

// wireBuf is one wire's replay buffer, ordered by key: a chunked deque, so
// appending never moves what is already buffered and trimming drops whole
// chunks instead of copying the survivors.
type wireBuf struct {
	deque.Deque[msg.Envelope]
	byCall bool // a call-reply wire: keyed by CallID rather than Seq
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
	if n := wb.Len(); n > 0 && wb.key(&env) <= wb.key(wb.At(n-1)) {
		return false
	}
	wb.Push(env)
	return true
}

// search returns the index of the first envelope whose key satisfies pred,
// which must be monotone in the key.
func (wb *wireBuf) search(pred func(key uint64) bool) int {
	return wb.Search(func(env *msg.Envelope) bool { return pred(wb.key(env)) })
}

func newBufferSet() *bufferSet {
	return &bufferSet{wires: make(map[msg.WireID]*wireBuf)}
}

// appendBatch buffers a routed batch's data-bearing envelopes under one
// lock: data and call requests on wires between components by Seq, call
// replies by CallID. Sink wires have no buffer.
func (b *bufferSet) appendBatch(tp *topo.Topology, envs []msg.Envelope) {
	locked := false
	for i := range envs {
		env := &envs[i]
		byCall := env.Kind == msg.KindCallReply
		if !byCall && (!env.IsMessage() || tp.Wire(env.Wire).To == topo.External) {
			continue
		}
		if !locked {
			b.mu.Lock()
			locked = true
		}
		b.pushLocked(*env, byCall)
	}
	if locked {
		b.mu.Unlock()
	}
}

func (b *bufferSet) pushLocked(env msg.Envelope, byCall bool) {
	wb := b.wires[env.Wire]
	if wb == nil {
		wb = &wireBuf{byCall: byCall}
		b.wires[env.Wire] = wb
	}
	if wb.push(env) {
		b.n++
	}
}

// from returns buffered envelopes of the wire with Seq >= fromSeq.
func (b *bufferSet) from(w msg.WireID, fromSeq uint64) []msg.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	wb := b.wires[w]
	if wb == nil {
		return nil
	}
	i := wb.search(func(seq uint64) bool { return seq >= fromSeq })
	return wb.AppendTo(make([]msg.Envelope, 0, wb.Len()-i), i)
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
		out = b.wires[w].AppendTo(out, 0)
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
	if i := wb.search(func(id uint64) bool { return id >= callID }); i < wb.Len() && wb.At(i).CallID == callID {
		return *wb.At(i), true
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
		return wb.Len()
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
	wb.DropFront(k)
}

// snapshot captures all buffers for inclusion in a checkpoint.
func (b *bufferSet) snapshot() map[msg.WireID][]msg.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[msg.WireID][]msg.Envelope, len(b.wires))
	for w, wb := range b.wires {
		if n := wb.Len(); n > 0 {
			out[w] = wb.AppendTo(make([]msg.Envelope, 0, n), 0)
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
		b.n += wb.Len() - b.countLocked(w)
		b.wires[w] = wb
	}
}
