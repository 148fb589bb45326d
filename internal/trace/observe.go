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
// (transport.Observer): each report updates the registry, the flight
// recorder and the span collector, any of which may be absent.

// wireObs is the handle Wire hands out for one end of a wire: the names its
// events carry and the handles its reports update. The other end's handles
// stay nil, which are valid no-ops.
type wireObs struct {
	component string
	wire      msg.WireID

	delivered, outOfOrder, probes, duplicates, holdback, blame *Counter
	sent, silences, divergence                                 *Counter
	pessimism, blameSeconds, estErr                            *Histogram
}

// event starts a flight event at VT t about message seq on o's wire.
func (o *wireObs) event(kind EventKind, t vt.Time, seq uint64) Event {
	return Event{Kind: kind, VT: t, Component: o.component, Wire: o.wire, MsgSeq: seq}
}

// span starts a span about message env on o's wire.
func (o *wireObs) span(phase span.Phase, env msg.Envelope, replayed bool) span.Span {
	return span.Span{Origin: env.Origin, Phase: phase, Component: o.component, Wire: o.wire, Seq: env.Seq, Hops: env.Hops, Replayed: replayed}
}

// Wire resolves one wire end's families: a receiver's delivery, queue,
// pessimism, blame and probe series, or a sender's sent and silence series,
// beside its component's estimator-error and replay-divergence series.
func (m *Metrics) Wire(component, label string, w msg.WireID, in bool) any {
	r := m.reg
	o := &wireObs{component: component, wire: w,
		estErr:     r.Histogram(MetricEstErr, "Signed estimator error: predicted cost minus measured handler duration (negative = underestimate).", SignedSecondsBuckets, L("component", component)),
		divergence: r.determinismFaults(component, "replay-divergence"),
	}
	lbls := []Label{L("component", component), L("wire", label)}
	if !in {
		o.sent = r.Counter(MetricSent, "Data, call, and reply envelopes emitted on the wire.", lbls...)
		o.silences = r.silences(component, label)
		return o
	}
	o.delivered = r.Counter(MetricDelivered, "Messages delivered to handlers.", lbls...)
	o.outOfOrder = r.Counter(MetricOutOfOrder, "Messages delivered in VT order that arrived out of real-time order.", lbls...)
	o.probes = r.Counter(MetricProbes, "Curiosity probes sent to the wire's sender.", lbls...)
	o.duplicates = r.duplicates(component, label)
	o.pessimism = r.Histogram(MetricPessimism, "Pessimism delay: real time spent holding a deliverable message awaiting other senders' silence.", SecondsBuckets, lbls...)
	o.blame = r.Counter(MetricBlame, "Pessimism episodes where this wire's silence frontier was the last holdout.", lbls...)
	o.blameSeconds = r.Histogram(MetricBlameSeconds, "Real time pessimism episodes blamed on this wire cost the receiver.", SecondsBuckets, lbls...)
	o.holdback = r.Counter(MetricHoldbackDrops, "Arrivals shed because the hold-back area was at its cap.", lbls...)
	return o
}

// Traced resolves an envelope's trace mark against the span collector.
func (m *Metrics) Traced(mark int8, origin msg.OriginID) bool { return m.spans.Decided(mark, origin) }

// Dropped counts a duplicate or hold-back drop and records it.
func (m *Metrics) Dropped(in any, env msg.Envelope, overflow bool) {
	o := in.(*wireObs)
	ev := o.event(EvDuplicateDrop, env.VT, env.Seq)
	if overflow {
		o.holdback.Inc()
		ev.Note = "holdback overflow"
	} else {
		o.duplicates.Inc()
	}
	m.rec.Record(ev)
}

// DroppedReply counts a duplicate call reply and records it.
func (m *Metrics) DroppedReply(component, label string, env msg.Envelope) {
	m.reg.duplicates(component, label).Inc()
	m.rec.Record(Event{Kind: EvDuplicateDrop, VT: env.VT, Component: component, Wire: env.Wire, MsgSeq: env.Seq, Note: "duplicate call reply"})
}

// Blocked records a pessimism episode's start.
func (m *Metrics) Blocked(in any, env msg.Envelope) {
	m.rec.Record(in.(*wireObs).event(EvPessimismStart, env.VT, env.Seq))
}

// Probe counts a curiosity probe and records it.
func (m *Metrics) Probe(in any, t vt.Time) {
	o := in.(*wireObs)
	o.probes.Inc()
	m.rec.Record(o.event(EvProbe, t, 0))
}

// Delivered accounts a delivery: the pessimism episode it ended, with its
// blame (§II.H), a replay divergence, and the delivery itself.
func (m *Metrics) Delivered(in, blamed any, env msg.Envelope, at vt.Time, wait time.Duration, outOfOrder, diverged bool) {
	o := in.(*wireObs)
	if b, ok := blamed.(*wireObs); ok {
		o.pessimism.Observe(wait.Seconds())
		b.blame.Inc()
		b.blameSeconds.Observe(wait.Seconds())
		ev := o.event(EvPessimismEnd, env.VT, env.Seq)
		ev.WaitNanos = int64(wait)
		ev.SetBlame(b.wire)
		m.rec.Record(ev)
	}
	if diverged {
		o.divergence.Inc()
		ev := o.event(EvDeterminismFault, env.VT, env.Seq)
		ev.Origin, ev.Hops = env.Origin, env.Hops
		ev.Note = "replay divergence: delivered payload differs from recorded chain"
		m.rec.Record(ev)
	}
	o.delivered.Inc()
	if outOfOrder {
		o.outOfOrder.Inc()
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

// Computed observes the estimator's error and records a sampled delivery's
// compute span, whose VT extent is the charged cost (plus any Call
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

// Sent counts an emitted envelope and records it.
func (m *Metrics) Sent(out any, env msg.Envelope, note string) {
	o := out.(*wireObs)
	o.sent.Inc()
	ev := o.event(EvSend, env.VT, env.Seq)
	ev.Origin, ev.Hops, ev.Note = env.Origin, env.Hops, note
	m.rec.Record(ev)
}

// Silence counts a silence promise and records it.
func (m *Metrics) Silence(out any, through vt.Time) {
	o := out.(*wireObs)
	o.silences.Inc()
	m.rec.Record(o.event(EvSilence, through, 0))
}

// Curiosity records a standing curiosity's registration or satisfaction.
func (m *Metrics) Curiosity(out any, target vt.Time, satisfied bool) {
	kind := EvCuriosityStanding
	if satisfied {
		kind = EvCuriositySatisfied
	}
	m.rec.Record(out.(*wireObs).event(kind, target, 0))
}

// Recalibrated counts a logged recalibration and records it, or records
// the engine's refusal.
func (m *Metrics) Recalibrated(component string, at vt.Time, err error) {
	note := "estimator recalibration"
	if err != nil {
		note += " not committed: " + err.Error()
	} else {
		m.reg.determinismFaults(component, "recalibration").Inc()
	}
	m.rec.Record(Event{Kind: EvDeterminismFault, VT: at, Component: component, Wire: -1, Note: note})
}

// Help text of engine families both seeded and reported. A checkpoint is
// full if every component shipped its whole state, else a delta.
const (
	coalesceHelp  = "Peer-bound silence promises absorbed by a newer promise during a flush."
	ckptCountHelp = "Soft checkpoints applied to the backup, by kind."
	ckptBytesHelp = "Encoded handler-state bytes per soft checkpoint, by kind."
	ckptHoldHelp  = "Real time one component's delivery loop was held quiescent while a soft checkpoint staged its state."
	ckptStoreHelp = "Real time per soft checkpoint spent encoding state and applying it to the backup (fsyncs included), after the delivery loops were released."
)

// NewEngineRegistry creates an engine incarnation's registry (const label
// engine=<name>) with its label-free families seeded at zero, scrapeable
// from launch even if the engine never checkpoints. A labeled family is
// seeded where its label value becomes known: per source at Source, per
// peer at Dialer.
func NewEngineRegistry(engine string) *Registry {
	r := NewRegistry(L("engine", engine))
	r.Counter(MetricCkptStoreWrites, "Checkpoints persisted by the durable checkpoint store.")
	r.Counter(MetricCkptStoreFsyncs, "fsync calls issued by the durable checkpoint store.")
	r.Counter(MetricSilenceCoalesce, coalesceHelp)
	r.WAL()
	for _, kind := range []string{"full", "delta"} {
		r.Counter(MetricCheckpoints, ckptCountHelp, L("kind", kind))
		r.Histogram(MetricCheckpointBytes, ckptBytesHelp, BytesBuckets, L("kind", kind))
	}
	r.Histogram(MetricCheckpointHold, ckptHoldHelp, SecondsBuckets)
	r.Histogram(MetricCheckpointStore, ckptStoreHelp, SecondsBuckets)
	return r
}

// CheckpointHeld observes the stall one component's loop saw.
func (m *Metrics) CheckpointHeld(held time.Duration) {
	m.reg.Histogram(MetricCheckpointHold, ckptHoldHelp, SecondsBuckets).Observe(held.Seconds())
}

// Checkpointed accounts a checkpoint by kind and records it.
func (m *Metrics) Checkpointed(at vt.Time, seq uint64, base bool, bytes int, offLoop, took time.Duration) {
	kind := L("kind", "delta")
	if base {
		kind = L("kind", "full")
	}
	m.reg.Counter(MetricCheckpoints, ckptCountHelp, kind).Inc()
	m.reg.Histogram(MetricCheckpointBytes, ckptBytesHelp, BytesBuckets, kind).Observe(float64(bytes))
	m.reg.Histogram(MetricCheckpointStore, ckptStoreHelp, SecondsBuckets).Observe(offLoop.Seconds())
	m.rec.Record(Event{Kind: EvCheckpoint, VT: at, Wire: -1, MsgSeq: seq,
		Note: fmt.Sprintf("%d bytes in %v", bytes, took.Round(time.Microsecond))})
}

// ChainMismatch counts a restored checkpoint's audit-chain divergence and
// records it.
func (m *Metrics) ChainMismatch(component string, at vt.Time, delivery uint64) {
	m.reg.determinismFaults(component, "checkpoint-chain").Inc()
	m.rec.Record(Event{Kind: EvDeterminismFault, VT: at, Component: component, Wire: -1,
		Note: fmt.Sprintf("checkpoint audit chain mismatch at delivery %d", delivery)})
}

// Failover counts a replica activation and records it.
func (m *Metrics) Failover(seq uint64) {
	m.reg.Counter(MetricFailovers, "Passive-replica activations.").Inc()
	m.rec.Record(Event{Kind: EvFailover, VT: vt.Never, Wire: -1, MsgSeq: seq,
		Note: fmt.Sprintf("activated from checkpoint %d", seq)})
}

// ReplayServed records a buffer's replay, counting one a peer asked for.
func (m *Metrics) ReplayServed(w msg.WireID, label string, seq uint64, n int, local bool) {
	note := fmt.Sprintf("re-delivered %d buffered envelopes (local replay)", n)
	if !local {
		m.reg.Counter(MetricReplayServes, "Replay-range requests served from replay buffers.", L("wire", label)).Inc()
		note = fmt.Sprintf("resent %d buffered envelopes", n)
	}
	m.rec.Record(Event{Kind: EvReplayServe, VT: vt.Never, Wire: w, MsgSeq: seq, Note: note})
}

// ReplayRequested counts a replay request and records it.
func (m *Metrics) ReplayRequested(w msg.WireID, label string, seq uint64) {
	m.reg.Counter(MetricReplayRequests, "Replay-range requests issued to senders.", L("wire", label)).Inc()
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

// sourceObs is a source's handle: its events' names and its counters.
type sourceObs struct {
	name                             string
	wire                             msg.WireID
	emits, silences, shed, coldstart *Counter
}

// Source resolves a source's series, seeding its shed and cold-start
// counters at zero.
func (m *Metrics) Source(name, label string, w msg.WireID) any {
	src := L("source", name)
	return &sourceObs{name: name, wire: w,
		emits:     m.reg.Counter(MetricSourceEmits, "External messages logged and injected by a source.", src),
		silences:  m.reg.silences(name, label),
		shed:      m.reg.Counter(MetricSourceShed, "External inputs refused at sources because buffered replay state hit its bound.", src),
		coldstart: m.reg.Counter(MetricColdstartReplayed, "Logged input records re-injected from the durable WAL suffix during a cold restart.", src),
	}
}

// Emitted counts a logged input and records it.
func (m *Metrics) Emitted(src any, env msg.Envelope) {
	o := src.(*sourceObs)
	o.emits.Inc()
	m.rec.Record(Event{Kind: EvSourceEmit, VT: env.VT, Component: o.name, Wire: o.wire, MsgSeq: env.Seq, Origin: env.Origin})
}

// Shed counts a refused input.
func (m *Metrics) Shed(src any) { src.(*sourceObs).shed.Inc() }

// SourceSilence counts a promise and records one answering a probe.
func (m *Metrics) SourceSilence(src any, promise vt.Time, probe bool) {
	o := src.(*sourceObs)
	o.silences.Inc()
	if probe {
		m.rec.Record(Event{Kind: EvSilence, VT: promise, Component: o.name, Wire: o.wire, Note: "source probe answer"})
	}
}

// LogReplayed records a log replay and counts a cold restart's inputs.
func (m *Metrics) LogReplayed(src any, seq uint64, n int, cold bool) {
	o := src.(*sourceObs)
	m.rec.Record(Event{Kind: EvReplayRequest, VT: vt.Never, Component: o.name, Wire: o.wire, MsgSeq: seq, Note: "source log replay"})
	if cold {
		o.coldstart.Add(int64(n))
	}
}

// TraceMark is the span collector's decision (zero without one).
func (m *Metrics) TraceMark(origin msg.OriginID, at vt.Time) int8 {
	return m.spans.DecideAt(origin, at)
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
