package trace

import (
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/trace/span"
	"repro/internal/vt"
)

// This file makes *Metrics the scheduler's observer (sched.Observer), the
// engine's (engine.Observer, which embeds it) and the TCP transport's
// (transport.Observer): each report updates the registry's push-only
// families, the flight recorder and the span collector, any of which may be
// absent. Counts are not reported here: the scheduler and the engine keep
// them, and the cluster's collectors pull them at gather time. A report
// whose only product is a flight event returns before building it when no
// recorder is attached.

// wireObs is the handle Wire hands out for one end of a wire: the names its
// events carry and the distributions its reports fill. The sending end's
// delivery-side handles stay nil, which are valid no-ops.
type wireObs struct {
	component string
	wire      msg.WireID

	pessimism, blameSeconds, estErr *Histogram
}

// event starts a flight event at VT t about message seq on o's wire.
func (o *wireObs) event(kind EventKind, t vt.Time, seq uint64) Event {
	return Event{Kind: kind, VT: t, Component: o.component, Wire: o.wire, MsgSeq: seq}
}

// span starts a span about message env on o's wire.
func (o *wireObs) span(phase span.Phase, env msg.Envelope, replayed bool) span.Span {
	return span.Span{Origin: env.Origin, Phase: phase, Component: o.component, Wire: o.wire, Seq: env.Seq, Hops: env.Hops, Replayed: replayed}
}

// Wire resolves one wire end's distributions: a receiver's pessimism and
// blame series, beside its component's estimator-error series.
func (m *Metrics) Wire(component, label string, w msg.WireID, in bool) any {
	r := m.reg
	o := &wireObs{component: component, wire: w,
		estErr: r.Histogram(MetricEstErr, "Signed estimator error: predicted cost minus measured handler duration (negative = underestimate), over sampled handler runs.", SignedSecondsBuckets, L("component", component)),
	}
	if in {
		lbls := []Label{L("component", component), L("wire", label)}
		o.pessimism = r.Histogram(MetricPessimism, "Pessimism delay: real time spent holding a deliverable message awaiting other senders' silence.", SecondsBuckets, lbls...)
		o.blameSeconds = r.Histogram(MetricBlameSeconds, "Real time pessimism episodes blamed on this wire cost the receiver.", SecondsBuckets, lbls...)
	}
	return o
}

// Traced resolves an envelope's trace mark against the span collector.
func (m *Metrics) Traced(mark int8, origin msg.OriginID) bool { return m.spans.Decided(mark, origin) }

// Dropped records a duplicate or hold-back drop.
func (m *Metrics) Dropped(in any, env msg.Envelope, overflow bool) {
	if m.rec == nil {
		return
	}
	ev := in.(*wireObs).event(EvDuplicateDrop, env.VT, env.Seq)
	if overflow {
		ev.Note = "holdback overflow"
	}
	m.rec.Record(ev)
}

// DroppedReply records a duplicate call reply.
func (m *Metrics) DroppedReply(component string, env msg.Envelope) {
	if m.rec == nil {
		return
	}
	m.rec.Record(Event{Kind: EvDuplicateDrop, VT: env.VT, Component: component, Wire: env.Wire, MsgSeq: env.Seq, Note: "duplicate call reply"})
}

// Blocked records a pessimism episode's start.
func (m *Metrics) Blocked(in any, env msg.Envelope) {
	if m.rec == nil {
		return
	}
	m.rec.Record(in.(*wireObs).event(EvPessimismStart, env.VT, env.Seq))
}

// Probe records a curiosity probe.
func (m *Metrics) Probe(in any, t vt.Time) {
	if m.rec == nil {
		return
	}
	m.rec.Record(in.(*wireObs).event(EvProbe, t, 0))
}

// Delivered observes the pessimism episode a delivery ended, with its blame
// (§II.H), and records the episode, a replay divergence and the delivery.
func (m *Metrics) Delivered(in, blamed any, env msg.Envelope, at vt.Time, wait time.Duration, diverged bool) {
	o := in.(*wireObs)
	b, episode := blamed.(*wireObs)
	if episode {
		o.pessimism.Observe(wait.Seconds())
		b.blameSeconds.Observe(wait.Seconds())
	}
	if m.rec == nil {
		return
	}
	if episode {
		ev := o.event(EvPessimismEnd, env.VT, env.Seq)
		ev.WaitNanos = int64(wait)
		ev.SetBlame(b.wire)
		m.rec.Record(ev)
	}
	if diverged {
		ev := o.event(EvDeterminismFault, env.VT, env.Seq)
		ev.Origin, ev.Hops = env.Origin, env.Hops
		ev.Note = "replay divergence: delivered payload differs from recorded chain"
		m.rec.Record(ev)
	}
	ev := o.event(EvDeliver, at, env.Seq)
	ev.Origin, ev.Hops = env.Origin, env.Hops
	m.rec.Record(ev)
}

// Waited records a sampled delivery's queueing span, from enqueue to the
// pessimism episode's start (or to the pop when nothing blocked it), and
// its pessimism span. An episode that began before the message arrived is
// clamped to the enqueue, so the two spans tile the interval exactly once.
func (m *Metrics) Waited(in, blamed any, env msg.Envelope, at vt.Time, wait time.Duration, enq, pop time.Time, replayed bool) {
	sp := in.(*wireObs).span(span.PhaseQueueing, env, replayed)
	sp.Start, sp.End, sp.StartVT, sp.EndVT = enq, pop, env.VT, at
	b, episode := blamed.(*wireObs)
	if episode {
		sp.End = pop.Add(-wait)
		if sp.End.Before(enq) {
			sp.End = enq
		}
	}
	if sp.End.After(enq) {
		m.spans.Record(sp)
	}
	if episode {
		sp.Phase, sp.Start, sp.End, sp.Note = span.PhasePessimism, sp.End, pop, "blame="+b.wire.String()
		m.spans.Record(sp)
	}
}

// Computed observes a timed delivery's estimator error and records a
// span-sampled one's compute span, whose VT extent is the charged cost (plus any Call
// continuations), so EndVT−StartVT vs End−Start reads the estimator error
// straight off the timeline.
func (m *Metrics) Computed(in any, env msg.Envelope, at, end vt.Time, cost time.Duration, start time.Time, took time.Duration, replayed bool) {
	o := in.(*wireObs)
	o.estErr.Observe((cost - took).Seconds())
	if m.spans.Decided(env.Trace, env.Origin) {
		sp := o.span(span.PhaseCompute, env, replayed)
		sp.Start, sp.End, sp.StartVT, sp.EndVT = start, start.Add(took), at, end
		m.spans.Record(sp)
	}
}

// Sent records an emitted envelope.
func (m *Metrics) Sent(out any, env msg.Envelope, note string) {
	if m.rec == nil {
		return
	}
	ev := out.(*wireObs).event(EvSend, env.VT, env.Seq)
	ev.Origin, ev.Hops, ev.Note = env.Origin, env.Hops, note
	m.rec.Record(ev)
}

// Silence records a silence promise.
func (m *Metrics) Silence(out any, through vt.Time) {
	if m.rec == nil {
		return
	}
	m.rec.Record(out.(*wireObs).event(EvSilence, through, 0))
}

// Curiosity records a standing curiosity's registration or satisfaction.
func (m *Metrics) Curiosity(out any, target vt.Time, satisfied bool) {
	if m.rec == nil {
		return
	}
	kind := EvCuriosityStanding
	if satisfied {
		kind = EvCuriositySatisfied
	}
	m.rec.Record(out.(*wireObs).event(kind, target, 0))
}

// Recalibrated records a logged recalibration, or the engine's refusal.
func (m *Metrics) Recalibrated(component string, at vt.Time, err error) {
	if m.rec == nil {
		return
	}
	note := "estimator recalibration"
	if err != nil {
		note += " not committed: " + err.Error()
	}
	m.rec.Record(Event{Kind: EvDeterminismFault, VT: at, Component: component, Wire: -1, Note: note})
}

// Help text of engine families both seeded and reported. A checkpoint is
// full if every component shipped its whole state, else a delta.
const (
	coalesceHelp  = "Peer-bound silence promises absorbed by a newer promise during a flush."
	ckptBytesHelp = "Encoded handler-state bytes per soft checkpoint, by kind."
	ckptHoldHelp  = "Real time one component's delivery loop was held quiescent while a soft checkpoint staged its state."
	ckptStoreHelp = "Real time per soft checkpoint spent encoding state and applying it to the backup (fsyncs included), after the delivery loops were released."
)

// seedEngine seeds the engine's label-free push families at zero, so they
// are scrapeable from launch even if the engine never checkpoints. A
// labeled family is seeded where its label value becomes known: per peer at
// Dialer.
func seedEngine(r *Registry) {
	r.Counter(MetricCkptStoreWrites, "Checkpoints persisted by the durable checkpoint store.")
	r.Counter(MetricCkptStoreFsyncs, "fsync calls issued by the durable checkpoint store.")
	r.Counter(MetricSilenceCoalesce, coalesceHelp)
	r.WAL()
	for _, kind := range []string{"full", "delta"} {
		r.Histogram(MetricCheckpointBytes, ckptBytesHelp, BytesBuckets, L("kind", kind))
	}
	r.Histogram(MetricCheckpointHold, ckptHoldHelp, SecondsBuckets)
	r.Histogram(MetricCheckpointStore, ckptStoreHelp, SecondsBuckets)
}

// CheckpointHeld observes the stall one component's loop saw.
func (m *Metrics) CheckpointHeld(held time.Duration) {
	m.reg.Histogram(MetricCheckpointHold, ckptHoldHelp, SecondsBuckets).Observe(held.Seconds())
}

// Checkpointed observes a checkpoint's size by kind and its off-loop time,
// and records it.
func (m *Metrics) Checkpointed(at vt.Time, seq uint64, base bool, bytes int, offLoop, took time.Duration) {
	kind := L("kind", "delta")
	if base {
		kind = L("kind", "full")
	}
	m.reg.Histogram(MetricCheckpointBytes, ckptBytesHelp, BytesBuckets, kind).Observe(float64(bytes))
	m.reg.Histogram(MetricCheckpointStore, ckptStoreHelp, SecondsBuckets).Observe(offLoop.Seconds())
	m.rec.Record(Event{Kind: EvCheckpoint, VT: at, Wire: -1, MsgSeq: seq,
		Note: fmt.Sprintf("%d bytes in %v", bytes, took.Round(time.Microsecond))})
}

// ChainMismatch records a restored checkpoint's audit-chain divergence.
func (m *Metrics) ChainMismatch(component string, at vt.Time, delivery uint64) {
	m.rec.Record(Event{Kind: EvDeterminismFault, VT: at, Component: component, Wire: -1,
		Note: fmt.Sprintf("checkpoint audit chain mismatch at delivery %d", delivery)})
}

// Failover records a replica activation.
func (m *Metrics) Failover(seq uint64) {
	m.rec.Record(Event{Kind: EvFailover, VT: vt.Never, Wire: -1, MsgSeq: seq,
		Note: fmt.Sprintf("activated from checkpoint %d", seq)})
}

// ReplayServed records a buffer's replay: local after a restore, or at a
// peer's request.
func (m *Metrics) ReplayServed(w msg.WireID, seq uint64, n int, local bool) {
	if m.rec == nil {
		return
	}
	note := fmt.Sprintf("resent %d buffered envelopes", n)
	if local {
		note = fmt.Sprintf("re-delivered %d buffered envelopes (local replay)", n)
	}
	m.rec.Record(Event{Kind: EvReplayServe, VT: vt.Never, Wire: w, MsgSeq: seq, Note: note})
}

// ReplayRequested records a replay request.
func (m *Metrics) ReplayRequested(w msg.WireID, seq uint64) {
	m.rec.Record(Event{Kind: EvReplayRequest, VT: vt.Never, Wire: w, MsgSeq: seq})
}

// Dialer resolves a dial loop's attempt counter.
func (m *Metrics) Dialer(peer string) (redial func()) {
	return m.reg.Counter(MetricRedials, "Dial attempts to a peer engine (first dials and redials).", L("peer", peer)).Inc
}

// PeerUp records a connection joining.
func (m *Metrics) PeerUp(peer string) {
	m.rec.Record(Event{Kind: EvPeerUp, VT: vt.Never, Wire: -1, Note: "peer " + peer})
}

// PeerDown records the live connection to peer dropped.
func (m *Metrics) PeerDown(peer string) {
	m.rec.Record(Event{Kind: EvPeerDown, VT: vt.Never, Wire: -1, Note: "peer " + peer})
}

// Fenced counts a handshake refused for its stale generation and records it.
func (m *Metrics) Fenced(peer string, gen uint64) {
	m.reg.Counter(MetricFencedHellos, "Peer handshakes rejected because they carried a stale generation (zombie fencing).", L("peer", peer)).Inc()
	m.rec.Record(Event{Kind: EvPeerDown, VT: vt.Never, Wire: -1,
		Note: fmt.Sprintf("fenced stale generation %d from peer %s", gen, peer)})
}

// SilencesCoalesced counts coalesced peer-bound promises.
func (m *Metrics) SilencesCoalesced(n int) {
	m.reg.Counter(MetricSilenceCoalesce, coalesceHelp).Add(int64(n))
}

// sourceObs is a source's handle: the names its events carry.
type sourceObs struct {
	name string
	wire msg.WireID
}

// Source resolves a source's handle.
func (m *Metrics) Source(name string, w msg.WireID) any {
	return &sourceObs{name: name, wire: w}
}

// Emitted records a logged input.
func (m *Metrics) Emitted(src any, env msg.Envelope) {
	if m.rec == nil {
		return
	}
	o := src.(*sourceObs)
	m.rec.Record(Event{Kind: EvSourceEmit, VT: env.VT, Component: o.name, Wire: o.wire, MsgSeq: env.Seq, Origin: env.Origin})
}

// SourceSilence records a promise answering a probe.
func (m *Metrics) SourceSilence(src any, promise vt.Time) {
	if m.rec == nil {
		return
	}
	o := src.(*sourceObs)
	m.rec.Record(Event{Kind: EvSilence, VT: promise, Component: o.name, Wire: o.wire, Note: "source probe answer"})
}

// LogReplayed records a log replay.
func (m *Metrics) LogReplayed(src any, seq uint64) {
	o := src.(*sourceObs)
	m.rec.Record(Event{Kind: EvReplayRequest, VT: vt.Never, Component: o.name, Wire: o.wire, MsgSeq: seq, Note: "source log replay"})
}

// TraceMark is the span collector's decision (zero without one).
func (m *Metrics) TraceMark(origin msg.OriginID) int8 {
	return m.spans.DecideAt(origin)
}

// socketObs is the transport's handles, resolved with the registry so a
// write or read updates them without taking the registry lock.
type socketObs struct {
	sent, recv, fallbacks *Counter
	batch                 *Histogram
}

// writevBatchBuckets grades how many frames one writev carried: 1 is no
// coalescing (sparse traffic), higher a burst sharing one syscall.
var writevBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

func newSocketObs(r *Registry) socketObs {
	const bytesHelp = "Socket bytes moved by the transport, by direction."
	return socketObs{
		sent:      r.Counter(MetricTransportBytes, bytesHelp, L("dir", "sent")),
		recv:      r.Counter(MetricTransportBytes, bytesHelp, L("dir", "recv")),
		fallbacks: r.Counter(MetricCodecFallbacks, "Envelopes whose payload used the gob fallback instead of a registered binary codec."),
		batch:     r.Histogram(MetricFramesPerWritev, "Envelope frames coalesced into one writev batch.", writevBatchBuckets),
	}
}

// SocketWrite counts one writev's bytes and observes its frame count.
func (m *Metrics) SocketWrite(frames, bytes int) {
	m.sock.sent.Add(int64(bytes))
	m.sock.batch.Observe(float64(frames))
}

// SocketRead counts one read's bytes.
func (m *Metrics) SocketRead(bytes int) { m.sock.recv.Add(int64(bytes)) }

// CodecFallback counts an envelope whose payload rode the gob fallback.
func (m *Metrics) CodecFallback() { m.sock.fallbacks.Inc() }
