package sched

import (
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/vt"
)

// maxDeliveryBatch bounds how many consecutive already-deliverable messages
// one step drains before returning to the outer loop. The bound keeps stop
// latency, control-envelope flushing, and checkpoint quiescence responsive
// under a sustained backlog.
const maxDeliveryBatch = 128

// loop is the component's single worker goroutine: it repeatedly selects
// the earliest deliverable message, runs the handler, and publishes the
// resulting silence knowledge.
func (s *Scheduler) loop() {
	defer close(s.done)
	timer := time.NewTimer(s.cfg.ProbeRetry)
	defer timer.Stop()
	var control []msg.Envelope // reused across steps; control envelopes carry no payload
	for {
		var delivered bool
		delivered, control = s.step(control[:0])
		for _, env := range control {
			s.cfg.Router.Route(env)
		}
		if delivered {
			// Immediately try for the next message.
			select {
			case <-s.stop:
				return
			default:
			}
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(s.cfg.ProbeRetry)
		select {
		case <-s.stop:
			return
		case <-s.poke:
		case <-timer.C:
			// Allow probes for unchanged targets to be re-issued.
			s.mu.Lock()
			for w := range s.probed {
				delete(s.probed, w)
			}
			s.mu.Unlock()
		}
	}
}

// step drains a batch of deliverable messages. It returns whether any
// message was handled and any control envelopes (curiosity probes, silence
// promises triggered by frontier advances) to send, appended to control.
//
// The lock is held across the per-delivery bookkeeping and the next
// candidate selection — with the heap index both are O(log W) — and
// released only around the handler itself, so draining an already-
// deliverable run costs one lock round-trip per handler instead of the old
// full frontier rescan.
func (s *Scheduler) step(control []msg.Envelope) (bool, []msg.Envelope) {
	delivered := false
	n := 0
	s.mu.Lock()
	for {
		// Advance the clock over known-silent input ticks first: like a
		// discrete-event simulator, a component whose inputs are all silent
		// through T has deterministically "lived through" T, which extends
		// the silence promises it can make downstream.
		s.applyDueSilenceLocked()
		if s.advanceFrontierLocked() {
			s.applyDueSilenceLocked()
			control = s.promiseLocked(control)
			// End of stream: when every input has promised silence forever,
			// the component will never send again. Flush a final promise on
			// every output wire regardless of strategy — even Lazy — so
			// downstream merges can drain (there is no "next data message"
			// to carry the silence implicitly).
			if s.clock == vt.Max && !s.finalSilenceSent {
				s.finalSilenceSent = true
				for _, id := range s.silenceWires {
					ow := s.outputs[id]
					s.gov.NoteData(id, vt.Max)
					s.noteSilence(ow, vt.Max)
					control = append(control, msg.NewSilenceAfter(id, vt.Max, ow.seq))
				}
			}
		}
		in := s.candidateLocked()
		if in == nil {
			break
		}
		cand := in.head()
		candWire := in.w.ID
		if blockers := s.blockersLocked(cand.env.VT, candWire); len(blockers) > 0 {
			if s.pessStart.IsZero() {
				s.pessStart = time.Now()
				s.rec.Record(trace.Event{Kind: trace.EvPessimismStart, VT: cand.env.VT, Component: s.comp.Name, Wire: candWire, MsgSeq: cand.env.Seq})
			}
			// Track the laggard: among the wires still blocking this
			// candidate, the one whose silence frontier trails furthest
			// (lowest wire ID on ties). The value observed on the episode's
			// final blocked pass is the last holdout, which the episode's
			// end blames (§II.H).
			s.pessBlame = blockers[0]
			worst := s.inputs[blockers[0]].watermark
			for _, w := range blockers[1:] {
				if wm := s.inputs[w].watermark; wm < worst {
					s.pessBlame, worst = w, wm
				}
			}
			if s.gov.Strategy().Probes() {
				for _, w := range blockers {
					if s.probed[w] < cand.env.VT {
						s.probed[w] = cand.env.VT
						s.inputs[w].m.Probes.Inc()
						s.rec.Record(trace.Event{Kind: trace.EvProbe, VT: cand.env.VT, Component: s.comp.Name, Wire: w})
						control = append(control, msg.NewProbe(w, cand.env.VT))
					}
				}
			}
			break
		}

		// Deliverable: commit the dequeue. A non-zero q.enq marks a
		// span-sampled delivery: capture the pop time (and, below, the
		// pessimism episode bounds) so queueing/pessimism/compute spans can
		// be emitted once the lock is released.
		q := in.pop()
		var spanPop, spanPessStart time.Time
		var spanBlame string
		if q.enq != 0 {
			spanPop = time.Now()
		}
		s.front.update(in)
		in.noteDepth()
		if !s.pessStart.IsZero() {
			wait := time.Since(s.pessStart)
			in.m.Pessimism.Observe(wait.Seconds())
			ev := trace.Event{Kind: trace.EvPessimismEnd, VT: q.env.VT, Component: s.comp.Name, Wire: candWire, MsgSeq: q.env.Seq, WaitNanos: int64(wait)}
			if blamed, ok := s.inputs[s.pessBlame]; ok {
				ev.SetBlame(s.pessBlame)
				blamed.m.Blame.Inc()
				blamed.m.BlameSeconds.Observe(wait.Seconds())
			}
			if !spanPop.IsZero() {
				spanPessStart = s.pessStart
				if _, ok := s.inputs[s.pessBlame]; ok {
					spanBlame = "blame=" + s.pessBlame.String()
				}
			}
			s.rec.Record(ev)
			s.pessStart = time.Time{}
			s.pessBlame = -1
		}
		outOfOrder := q.arrival < s.maxDlvd
		if q.arrival > s.maxDlvd {
			s.maxDlvd = q.arrival
		}
		in.m.Delivered.Inc()
		if outOfOrder {
			in.m.OutOfOrder.Inc()
		}

		d := vt.MaxOf(q.env.VT, s.clock)
		cost := s.cfg.Est.Cost(q.env.Payload, d)
		s.inFlight = d
		port := in.w.ToPort
		replayed := false
		hook := s.cfg.OnDelivered
		var hookD Delivery
		if s.audit != nil || hook != nil {
			// Fold the delivery into the rolling audit chain and verify it
			// against the recorded chain (first run records; replay and the
			// recovered replica compare, §II.G.4). On divergence, resync to
			// the recorded value so one corrupted message yields exactly one
			// fault instead of cascading down the rest of the chain. The
			// chain is also folded — without recording or verification —
			// when only the OnDelivered hook wants it (replay sandboxes run
			// audit-free but bisect over the chain values).
			digest := trace.PayloadDigest(q.env.Payload)
			s.auditChain = trace.ChainNext(s.auditChain, candWire, q.env.Seq, q.env.VT, digest)
			idx := s.auditCount
			s.auditCount++
			if s.audit != nil {
				if !spanPop.IsZero() {
					// A delivery index already inside the recorded audit window
					// is a post-failover re-delivery: its spans are recovery
					// work, not first-run latency.
					replayed = s.audit.Witnessed(s.comp.Name, idx)
				}
				if ok, want := s.audit.Check(s.comp.Name, idx, q.env.VT, s.auditChain); !ok {
					s.auditChain = want
					s.detFaults.Inc()
					s.rec.Record(trace.Event{Kind: trace.EvDeterminismFault, VT: q.env.VT, Component: s.comp.Name, Wire: candWire, MsgSeq: q.env.Seq, Origin: q.env.Origin, Hops: q.env.Hops, Note: "replay divergence: delivered payload differs from recorded chain"})
				}
			}
			if hook != nil {
				hookD = Delivery{Component: s.comp.Name, Wire: candWire, Seq: q.env.Seq,
					VT: q.env.VT, Dequeue: d, Origin: q.env.Origin, Hops: q.env.Hops,
					Index: idx, Chain: s.auditChain, Digest: digest}
			}
		}
		s.mu.Unlock()
		s.rec.Record(trace.Event{Kind: trace.EvDeliver, VT: d, Component: s.comp.Name, Wire: candWire, MsgSeq: q.env.Seq, Origin: q.env.Origin, Hops: q.env.Hops})
		if !spanPop.IsZero() {
			// Queueing runs from enqueue to the pessimism episode's start
			// (or straight to the pop when nothing blocked delivery); the
			// pessimism span covers the blocked wait. An episode that began
			// before this message even arrived is clamped to the enqueue so
			// the two spans tile the interval exactly once.
			enq := time.Unix(0, q.enq)
			qEnd := spanPop
			if !spanPessStart.IsZero() {
				if spanPessStart.Before(enq) {
					spanPessStart = enq
				}
				qEnd = spanPessStart
			}
			if qEnd.After(enq) {
				s.spans.Record(span.Span{Origin: q.env.Origin, Phase: span.PhaseQueueing, Component: s.comp.Name, Wire: candWire, Seq: q.env.Seq, Hops: q.env.Hops, Start: enq, End: qEnd, StartVT: q.env.VT, EndVT: d, Replayed: replayed})
			}
			if !spanPessStart.IsZero() {
				s.spans.Record(span.Span{Origin: q.env.Origin, Phase: span.PhasePessimism, Component: s.comp.Name, Wire: candWire, Seq: q.env.Seq, Hops: q.env.Hops, Start: spanPessStart, End: spanPop, StartVT: q.env.VT, EndVT: d, Replayed: replayed, Note: spanBlame})
			}
		}

		// Run the handler without holding the lock: it may Send (which locks
		// briefly) and Call (which blocks awaiting a reply).
		ctx := &s.ctx
		*ctx = Ctx{s: s, dequeue: d, handlerVT: d.Add(cost), origin: q.env.Origin, hops: q.env.Hops, trace: q.env.Trace}
		start := time.Now()
		reply, err := s.cfg.Handler.OnMessage(ctx, port, q.env.Payload)
		elapsed := time.Since(start)
		_ = err // handler errors are the application's concern; state advances regardless
		s.estErrHist.Observe((time.Duration(cost) - elapsed).Seconds())
		if !spanPop.IsZero() {
			// The VT extent is the estimator's charged cost (plus any Call
			// continuations), so EndVT−StartVT vs End−Start reads the
			// estimator error straight off the timeline.
			s.spans.Record(span.Span{Origin: q.env.Origin, Phase: span.PhaseCompute, Component: s.comp.Name, Wire: candWire, Seq: q.env.Seq, Hops: q.env.Hops, Start: start, End: start.Add(elapsed), StartVT: d, EndVT: ctx.handlerVT, Replayed: replayed})
		}

		if q.env.Kind == msg.KindCallRequest {
			s.sendReply(ctx, q.env, reply)
		}

		s.mu.Lock()
		if ctx.handlerVT > s.clock {
			s.clock = ctx.handlerVT
		}
		s.inFlight = vt.Never
		s.applyDueSilenceLocked()
		if s.quietWaiters > 0 {
			s.quiet.Broadcast()
		}
		control = s.promiseLocked(control)
		delivered = true
		n++

		if hook != nil || s.cfg.Calibration != nil {
			// Calibration commits determinism faults through the WAL (disk
			// IO), and OnDelivered reads handler state; both must run
			// unlocked — fall back to one delivery per step.
			hookD.ClockAfter = s.clock
			s.mu.Unlock()
			if hook != nil {
				hook(hookD)
			}
			if s.cfg.Calibration != nil {
				s.observe(q.env.Payload, vt.FromDuration(elapsed))
			}
			return delivered, control
		}
		if n >= maxDeliveryBatch || s.quietWaiters > 0 || s.stopped {
			// Yield: flush control traffic, let checkpoints in, honor Stop.
			break
		}
	}
	s.mu.Unlock()
	return delivered, control
}

// advanceFrontierLocked moves the component clock up to the earliest
// virtual time at which a yet-unknown input message could still occur: the
// minimum over input wires of (head VT if a message is queued, else
// watermark+1). This never changes any dequeue time — every future dequeue
// has VT at or beyond the frontier — so it is deterministic-neutral; it
// only lets the component promise more silence. It reports whether the
// clock moved.
func (s *Scheduler) advanceFrontierLocked() bool {
	if s.inFlight != vt.Never || len(s.inputs) == 0 {
		return false
	}
	var bound vt.Time
	if s.cfg.ReferenceMerge {
		bound = s.frontierBoundScanLocked()
	} else {
		bound = s.front.bound()
	}
	if bound > s.clock {
		s.clock = bound
		return true
	}
	return false
}

// frontierBoundScanLocked is the reference linear-scan frontier bound,
// equivalent to frontier.bound.
func (s *Scheduler) frontierBoundScanLocked() vt.Time {
	bound := vt.Max
	for _, in := range s.inputs {
		var h vt.Time
		switch {
		case in.head() != nil:
			h = in.head().env.VT
		case in.watermark == vt.Never:
			h = vt.Zero
		default:
			h = in.watermark.Add(1)
		}
		if h < bound {
			bound = h
		}
	}
	return bound
}

// candidateLocked returns the input wire holding the earliest queued
// message (by VT, tie-broken by wire ID), or nil if nothing is queued.
func (s *Scheduler) candidateLocked() *inWire {
	if s.cfg.ReferenceMerge {
		return s.candidateScanLocked()
	}
	return s.front.candidate()
}

// candidateScanLocked is the reference linear-scan candidate selection the
// heap fast path must agree with bit-for-bit.
func (s *Scheduler) candidateScanLocked() *inWire {
	var best *inWire
	for _, id := range s.sortedInputIDs() {
		in := s.inputs[id]
		h := in.head()
		if h == nil {
			continue
		}
		if best == nil || msg.Less(h.env, best.head().env) {
			best = in
		}
	}
	return best
}

// blockersLocked returns the input wires that prevent delivering a message
// with virtual time t on wire w: wires with no queued message whose
// watermark has not reached t. (A wire with a queued message cannot hide an
// earlier message: per-wire VTs are strictly increasing and delivery is
// FIFO, so its head bounds everything behind it.) The common case — no
// blockers — is answered by one heap-top watermark compare.
func (s *Scheduler) blockersLocked(t vt.Time, w msg.WireID) []msg.WireID {
	if s.cfg.ReferenceMerge {
		return s.blockersScanLocked(t, w)
	}
	if wm, ok := s.front.minWatermark(); !ok || wm >= t {
		return nil
	}
	return s.front.blockers(t)
}

// blockersScanLocked is the reference linear-scan blocker computation.
func (s *Scheduler) blockersScanLocked(t vt.Time, w msg.WireID) []msg.WireID {
	var out []msg.WireID
	for _, id := range s.sortedInputIDs() {
		if id == w {
			continue
		}
		in := s.inputs[id]
		if in.head() != nil {
			continue
		}
		if in.watermark < t {
			out = append(out, id)
		}
	}
	return out
}

// promiseLocked asks the governor which silence promises the clock's new
// position is worth, accounts them, and appends their envelopes to control.
func (s *Scheduler) promiseLocked(control []msg.Envelope) []msg.Envelope {
	s.promises = s.gov.Advance((*outViews)(s), s.silenceWires, s.promises[:0])
	for _, p := range s.promises {
		ow := s.outputs[p.Wire]
		s.noteSilence(ow, p.Through)
		control = append(control, msg.NewSilenceAfter(p.Wire, p.Through, ow.seq))
	}
	return control
}

// outViews is the scheduler as the governor's silence.ViewSource. Call-reply
// wires have no view: receivers never merge on them (exactly one reply per
// call), so silence promises there would be useless traffic. The scheduler
// lock must be held.
type outViews Scheduler

func (v *outViews) View(w msg.WireID) (silence.View, bool) {
	s := (*Scheduler)(v)
	ow, ok := s.outputs[w]
	if !ok || ow.w.Kind == topo.WireCallReply {
		return silence.View{}, false
	}
	return s.viewLocked(ow), true
}

// sendReply emits the reply to a two-way call. The reply's virtual time is
// the callee's handler completion time plus the reply wire's delay.
func (s *Scheduler) sendReply(ctx *Ctx, req msg.Envelope, reply any) {
	reqWire := s.cfg.Topo.Wire(req.Wire)
	if reqWire.Peer < 0 {
		return
	}
	s.mu.Lock()
	ow, ok := s.replyOut(reqWire.Peer)
	if !ok {
		s.mu.Unlock()
		return
	}
	stampBase := ctx.handlerVT.Add(s.cfg.Topo.Wire(reqWire.Peer).Delay)
	seq, stamped := ow.next(stampBase)
	s.gov.NoteData(reqWire.Peer, stamped)
	s.mu.Unlock()
	ow.m.Sent.Inc()
	env := msg.NewCallReply(reqWire.Peer, seq, stamped, req.CallID, reply)
	env.Origin, env.Hops, env.Trace = ctx.origin, ctx.hops+1, ctx.trace
	s.rec.Record(trace.Event{Kind: trace.EvSend, VT: stamped, Component: s.comp.Name, Wire: reqWire.Peer, MsgSeq: seq, Origin: env.Origin, Hops: env.Hops, Note: "call reply"})
	s.cfg.Router.Route(env)
}

// replyOut returns (lazily creating) the out-wire state for a call-reply
// wire. Reply wires are not in Comp.Outputs (they have no port name), so
// they are tracked on demand.
func (s *Scheduler) replyOut(id msg.WireID) (*outWire, bool) {
	if ow, ok := s.outputs[id]; ok {
		return ow, true
	}
	w := s.cfg.Topo.Wire(id)
	if w.From != s.comp.ID || w.Kind != topo.WireCallReply {
		return nil, false
	}
	ow := &outWire{w: w, lastSentVT: vt.Never, m: s.reg.OutWire(s.comp.Name, WireName(s.cfg.Topo, w))}
	s.outputs[id] = ow
	return ow, true
}

// observe feeds calibration and commits any proposed determinism fault.
func (s *Scheduler) observe(payload any, measured vt.Ticks) {
	cal := s.cfg.Calibration
	if cal == nil || cal.Observe == nil {
		return
	}
	var f estimator.Features
	if cal.Extract != nil {
		f = cal.Extract(payload)
	}
	fault := cal.Observe(f, measured)
	if fault == nil || cal.Commit == nil {
		return
	}
	s.mu.Lock()
	fault.EffectiveVT = s.clock.Add(1)
	s.mu.Unlock()
	if err := cal.Commit(*fault); err == nil {
		s.reg.DeterminismFaults(s.comp.Name, "recalibration").Inc()
		s.rec.Record(trace.Event{Kind: trace.EvDeterminismFault, VT: fault.EffectiveVT, Component: s.comp.Name, Wire: -1, Note: "estimator recalibration"})
	}
}
