package trace

import (
	"time"

	"repro/internal/msg"
	"repro/internal/trace/span"
	"repro/internal/vt"
)

// This file makes *Metrics the scheduler's observer (sched.Observer): each
// report updates the registry, the flight recorder and the span collector,
// any of which may be absent.

// wireObs is the handle Wire hands out for one end of a wire: the names its
// events carry and the handles its reports update. The other end's handles
// stay nil, which are valid no-ops.
type wireObs struct {
	component string
	wire      msg.WireID

	delivered, outOfOrder, probes, duplicates, holdback, blame *Counter
	sent, silences, divergence                                 *Counter
	pessimism, blameSeconds, estErr                            *Histogram
	depth                                                      *Gauge
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
		divergence: r.DeterminismFaults(component, "replay-divergence"),
	}
	lbls := []Label{L("component", component), L("wire", label)}
	if !in {
		o.sent = r.Counter(MetricSent, "Data, call, and reply envelopes emitted on the wire.", lbls...)
		o.silences = r.Silences(component, label)
		return o
	}
	o.delivered = r.Counter(MetricDelivered, "Messages delivered to handlers.", lbls...)
	o.outOfOrder = r.Counter(MetricOutOfOrder, "Messages delivered in VT order that arrived out of real-time order.", lbls...)
	o.probes = r.Counter(MetricProbes, "Curiosity probes sent to the wire's sender.", lbls...)
	o.duplicates = r.Duplicates(component, label)
	o.pessimism = r.Histogram(MetricPessimism, "Pessimism delay: real time spent holding a deliverable message awaiting other senders' silence.", SecondsBuckets, lbls...)
	o.depth = r.Gauge(MetricQueueDepth, "Messages currently queued on the wire.", lbls...)
	o.blame = r.Counter(MetricBlame, "Pessimism episodes where this wire's silence frontier was the last holdout.", lbls...)
	o.blameSeconds = r.Histogram(MetricBlameSeconds, "Real time pessimism episodes blamed on this wire cost the receiver.", SecondsBuckets, lbls...)
	o.holdback = r.Counter(MetricHoldbackDrops, "Arrivals shed because the hold-back area was at its cap.", lbls...)
	return o
}

// Traced resolves an envelope's trace mark against the span collector.
func (m *Metrics) Traced(mark int8, origin msg.OriginID) bool { return m.spans.Decided(mark, origin) }

// Queued sets the wire's queue-depth gauge.
func (m *Metrics) Queued(in any, depth int) { in.(*wireObs).depth.Set(int64(depth)) }

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
	m.reg.Duplicates(component, label).Inc()
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
		m.reg.DeterminismFaults(component, "recalibration").Inc()
	}
	m.rec.Record(Event{Kind: EvDeterminismFault, VT: at, Component: component, Wire: -1, Note: note})
}
