package sched

import (
	"maps"
	"time"

	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/vt"
)

// Observer receives a scheduler's push reports: flight events, latency
// spans and the distributions only a per-delivery report can fill.
// Config.Metrics holds one; nil is off, and each report site then costs
// one branch. Counts are not reported: the scheduler keeps them under its
// lock either way, and a reader pulls them (Counts). The trace package's
// *Metrics implements it; the scheduler imports no observability package.
//
// Reports about a wire carry the handle Wire returned for it. Some reports
// run under the scheduler lock, so an implementation must not block or call
// back into the scheduler.
type Observer interface {
	// Wire registers a component's end of a wire, labelled by WireName: New
	// registers every input (in) and output, and a call-reply wire is
	// registered at the callee's first reply.
	Wire(component, label string, w msg.WireID, in bool) any
	// Traced reports whether an envelope's deliveries are span-sampled.
	Traced(mark int8, origin msg.OriginID) bool
	// Dropped reports a duplicate arrival or, on overflow, one shed at the
	// hold-back cap; DroppedReply a duplicate call reply.
	Dropped(in any, env msg.Envelope, overflow bool)
	DroppedReply(component string, env msg.Envelope)
	// Blocked reports a pessimism episode starting on candidate env, Probe a
	// curiosity probe for VT t sent up a blocking input.
	Blocked(in any, env msg.Envelope)
	Probe(in any, t vt.Time)
	// Delivered reports env dequeued at VT at. One that ended a pessimism
	// episode carries its wait and last holdout, blamed (nil otherwise);
	// diverged marks a replay-divergence determinism fault.
	Delivered(in, blamed any, env msg.Envelope, at vt.Time, wait time.Duration, diverged bool)
	// Waited reports a span-sampled delivery's time from enqueue to pop, and
	// Computed a timed delivery's handler run, charged cost from at to end
	// and measured from start for took; replayed marks a re-delivery inside
	// the recorded audit window. The handler is timed only for a component
	// that calibrates (every delivery) or for a span-sampled delivery, so
	// Computed sees a sample, not every delivery.
	Waited(in, blamed any, env msg.Envelope, at vt.Time, wait time.Duration, enq, pop time.Time, replayed bool)
	Computed(in any, env msg.Envelope, at, end vt.Time, cost time.Duration, start time.Time, took time.Duration, replayed bool)
	// Sent reports an emitted data, call or reply envelope, Silence a
	// silence promise, and Curiosity a standing curiosity registered or
	// satisfied, on an output.
	Sent(out any, env msg.Envelope, note string)
	Silence(out any, through vt.Time)
	Curiosity(out any, target vt.Time, satisfied bool)
	// Recalibrated reports an estimator recalibration effective at VT at;
	// err says why the engine refused to log it.
	Recalibrated(component string, at vt.Time, err error)
}

// register resolves the observer's handle for one end of w (nil when off).
func (s *Scheduler) register(w *topo.Wire, in bool) any {
	if s.obs == nil {
		return nil
	}
	return s.obs.Wire(s.comp.Name, WireName(s.cfg.Topo, w), w.ID, in)
}

// noteSilence counts and reports one silence promise emitted on an output
// wire. The caller holds the lock.
func (s *Scheduler) noteSilence(ow *outWire, through vt.Time) {
	ow.counts.Silences++
	if s.obs != nil {
		s.obs.Silence(ow.obs, through)
	}
}

// WireCounts is what a scheduler counted on one end of a wire since New.
// The receiving end (In) counts deliveries, the out-of-real-time-order ones
// among them, curiosity probes sent up the wire, duplicate and hold-back
// drops, the pessimism episodes its deliveries ended (and their wait), and
// the episodes it was blamed for as the last holdout; the sending end
// counts emitted envelopes and silence promises.
type WireCounts struct {
	Wire msg.WireID
	In   bool

	Delivered, OutOfOrder, Probes, Duplicates, HoldbackDrops uint64
	PessimismEpisodes, Blame                                 uint64
	PessimismNanos                                           int64

	Sent, Silences uint64
}

// Counts is what a scheduler counted since New: per wire end, duplicate
// call replies by reply wire, and the determinism faults it raised —
// replay divergences its deliveries detected and recalibrations it
// committed.
type Counts struct {
	Wires                       []WireCounts
	ReplyDups                   map[msg.WireID]uint64
	Divergences, Recalibrations uint64
}

// Counts copies the scheduler's counts, kept under its lock whether or not
// an observer is attached: the values a metrics reader gathers.
func (s *Scheduler) Counts() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Counts{Wires: make([]WireCounts, 0, len(s.inputs)+len(s.outputs)),
		ReplyDups: maps.Clone(s.replyDups), Divergences: s.divergences, Recalibrations: s.recalibrations}
	for _, in := range s.inputs {
		c.Wires = append(c.Wires, in.counts)
	}
	for _, ow := range s.outputs {
		c.Wires = append(c.Wires, ow.counts)
	}
	return c
}
