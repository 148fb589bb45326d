package sched

import (
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
	"repro/internal/topo"
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
	retry := time.NewTicker(s.cfg.ProbeRetry)
	defer retry.Stop()
	for {
		delivered, _ := s.step(s.out[:0])
		s.flush()
		if delivered {
			// Immediately try for the next message.
			select {
			case <-s.stop:
				return
			default:
			}
			continue
		}
		select {
		case <-s.stop:
			return
		case <-s.poke:
		case <-retry.C:
			// Forget the outstanding probes: one lost in flight is re-issued
			// by the step that follows.
			s.mu.Lock()
			for _, in := range s.inputs {
				in.probe = vt.Never
			}
			s.mu.Unlock()
		}
	}
}

// step drains a batch of deliverable messages. It returns whether any
// message was handled and everything the step emitted, appended to out in
// emission order: the handlers' data and call replies, and the control
// envelopes (curiosity probes, silence promises triggered by frontier
// advances). The worker routes the batch (flush) once the step yields.
//
// The lock is held across the per-delivery bookkeeping and the next
// candidate selection — with the heap index both are O(log W) — and
// released only around the handler itself, so draining an already-
// deliverable run costs one lock round-trip per handler instead of the old
// full frontier rescan.
func (s *Scheduler) step(out []msg.Envelope) (bool, []msg.Envelope) {
	s.out = out
	delivered := false
	n := 0
	s.mu.Lock()
	if s.quietWaiters.Load() > 0 {
		// A checkpoint waits for quiescence, which holds between steps: let
		// it in before the next delivery. WithQuiescent wakes the worker.
		s.mu.Unlock()
		return false, s.out
	}
	for {
		// Advance the clock over known-silent input ticks first: like a
		// discrete-event simulator, a component whose inputs are all silent
		// through T has deterministically "lived through" T, which extends
		// the silence promises it can make downstream.
		s.applyDueSilenceLocked()
		if s.advanceFrontierLocked() {
			s.applyDueSilenceLocked()
			s.out = s.promiseLocked(s.out)
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
					s.out = append(s.out, msg.NewSilenceAfter(id, vt.Max, ow.seq))
				}
			}
		}
		in := s.front.candidate()
		if in == nil {
			break
		}
		cand := in.head()
		candWire := in.w.ID
		if blockers := s.blockersLocked(cand.env.VT); len(blockers) > 0 {
			if s.pessStart.IsZero() {
				s.pessStart = time.Now()
				if s.obs != nil {
					s.obs.Blocked(in.obs, cand.env)
				}
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
					// A candidate later than the outstanding probe's target
					// asks again at once: the sender raises its standing
					// target, so a busy sender answers the candidate when its
					// handler ends, not one round trip after that.
					in := s.inputs[w]
					if in.probe < cand.env.VT {
						in.probe = vt.Never
					}
					s.out = s.probeLocked(in, cand.env.VT, s.out)
				}
			}
			break
		}

		// Deliverable: commit the dequeue. A non-zero q.enq marks a
		// span-sampled delivery, whose pop time the observer's spans end at.
		q := in.pop()
		s.front.update(in)
		var pop time.Time
		var wait time.Duration
		var blamed any
		if q.enq != 0 || !s.pessStart.IsZero() {
			pop = time.Now()
		}
		if !s.pessStart.IsZero() {
			wait = pop.Sub(s.pessStart)
			if b, ok := s.inputs[s.pessBlame]; ok {
				blamed = b.obs
				b.counts.Blame++
				in.counts.PessimismEpisodes++
				in.counts.PessimismNanos += int64(wait)
			}
			s.pessStart = time.Time{}
			s.pessBlame = -1
		}
		outOfOrder := q.arrival < s.maxDlvd
		if q.arrival > s.maxDlvd {
			s.maxDlvd = q.arrival
		}
		in.counts.Delivered++
		if outOfOrder {
			in.counts.OutOfOrder++
		}

		d := vt.MaxOf(q.env.VT, s.clock)
		cost := s.cfg.Est.Cost(q.env.Payload, d)
		s.inFlight = d
		port := in.w.ToPort
		replayed, diverged := false, false
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
			digest := PayloadDigest(q.env.Payload)
			s.auditChain = ChainNext(s.auditChain, candWire, q.env.Seq, q.env.VT, digest)
			idx := s.auditCount
			s.auditCount++
			if s.audit != nil {
				if q.enq != 0 {
					// A delivery index already inside the recorded audit window
					// is a post-failover re-delivery: its spans are recovery
					// work, not first-run latency.
					replayed = s.audit.Witnessed(s.comp.Name, idx)
				}
				if ok, want := s.audit.Check(s.comp.Name, idx, q.env.VT, s.auditChain); !ok {
					s.auditChain, diverged = want, true
					s.divergences++
				}
			}
			if hook != nil {
				hookD = Delivery{Component: s.comp.Name, Wire: candWire, Seq: q.env.Seq,
					VT: q.env.VT, Dequeue: d, Origin: q.env.Origin, Hops: q.env.Hops,
					Index: idx, Chain: s.auditChain, Digest: digest}
			}
		}
		s.mu.Unlock()
		if s.obs != nil {
			s.obs.Delivered(in.obs, blamed, q.env, d, wait, diverged)
			if q.enq != 0 {
				s.obs.Waited(in.obs, blamed, q.env, d, wait, time.Unix(0, q.enq), pop, replayed)
			}
		}

		// Run the handler without holding the lock: it may Send (which locks
		// briefly) and Call (which blocks awaiting a reply). Its run is timed
		// only for a reader of the measurement: calibration, or the observer
		// when the delivery is span-sampled (q.enq, the head-sampling hash).
		ctx := &s.ctx
		*ctx = Ctx{s: s, dequeue: d, handlerVT: d.Add(cost), origin: q.env.Origin, hops: q.env.Hops, trace: q.env.Trace}
		timed := q.enq != 0 || s.cfg.Calibration != nil
		var start time.Time
		if timed {
			start = time.Now()
		}
		reply, err := s.cfg.Handler.OnMessage(ctx, port, q.env.Payload)
		var elapsed time.Duration
		if timed {
			elapsed = time.Since(start)
		}
		_ = err // handler errors are the application's concern; state advances regardless
		if timed && s.obs != nil {
			s.obs.Computed(in.obs, q.env, d, ctx.handlerVT, time.Duration(cost), start, elapsed, replayed)
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
		if s.quietWaiters.Load() > 0 {
			s.quiet.Broadcast()
		}
		s.out = s.promiseLocked(s.out)
		delivered = true
		n++

		if hook != nil || s.cfg.Calibration != nil {
			// Calibration commits determinism faults through the WAL (disk
			// IO), and OnDelivered reads handler state; both must run
			// unlocked — fall back to one delivery per step.
			hookD.ClockAfter = s.clock
			s.unrouted.Store(len(s.out) > 0)
			s.mu.Unlock()
			if hook != nil {
				hook(hookD)
			}
			if s.cfg.Calibration != nil {
				s.observe(q.env.Payload, vt.FromDuration(elapsed))
			}
			return delivered, s.out
		}
		if n >= maxDeliveryBatch || s.quietWaiters.Load() > 0 || s.stopped {
			// Yield: flush control traffic, let checkpoints in, honor Stop.
			break
		}
	}
	// Standing curiosity the clock has not covered climbs on: a new probe,
	// an answered forward that left the target short, or a forward the
	// ProbeRetry backstop forgot.
	s.out = s.forwardLocked(s.out)
	s.unrouted.Store(len(s.out) > 0)
	s.mu.Unlock()
	return delivered, s.out
}

// flush routes what the worker staged as one batch and empties the stage.
// A WithQuiescent waiter registers before it reads unrouted, and flush
// clears unrouted before it reads the waiter count, so one sees the other.
func (s *Scheduler) flush() {
	if len(s.out) == 0 {
		return
	}
	s.cfg.RouteBatch(s.out)
	clear(s.out) // the stage must not keep routed payloads reachable
	s.out = s.out[:0]
	s.unrouted.Store(false)
	if s.quietWaiters.Load() > 0 {
		s.mu.Lock()
		s.quiet.Broadcast()
		s.mu.Unlock()
	}
}

// forwardLocked relays this component's standing curiosity upstream: a
// target it cannot promise yet waits on the input wires that hold its clock
// back — no queued message, and a watermark below the horizon the targets
// need (silence.Governor.Need) — so each of them is probed for that
// horizon. Source wires are answered by the engine (answerSourceProbe).
func (s *Scheduler) forwardLocked(control []msg.Envelope) []msg.Envelope {
	if !s.gov.Strategy().Probes() {
		return control
	}
	need, ok := s.gov.Need((*outViews)(s))
	if !ok {
		return control
	}
	for _, in := range s.front.silent {
		if in.watermark < need {
			control = s.probeLocked(in, need, control)
		}
	}
	return control
}

// probeLocked appends a curiosity probe for silence through t (beyond the
// wire's watermark) on the input wire, unless a probe is still outstanding
// there: one probe per wire is in flight, and the next goes out once the
// watermark has reached the last one's target (or the ProbeRetry backstop
// forgot it, or a blocked candidate needs a later target).
func (s *Scheduler) probeLocked(in *inWire, t vt.Time, control []msg.Envelope) []msg.Envelope {
	if in.watermark < in.probe {
		return control
	}
	in.probe = t
	in.counts.Probes++
	if s.obs != nil {
		s.obs.Probe(in.obs, t)
	}
	return append(control, msg.NewProbe(in.w.ID, t))
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
	if bound := s.front.bound(); bound > s.clock {
		s.clock = bound
		return true
	}
	return false
}

// blockersLocked returns the input wires that prevent delivering a message
// with virtual time t: wires with no queued message whose watermark has not
// reached t. (A wire with a queued message cannot hide an earlier message:
// per-wire VTs are strictly increasing and delivery is FIFO, so its head
// bounds everything behind it.) The common case — no blockers — is answered
// by one heap-top watermark compare.
func (s *Scheduler) blockersLocked(t vt.Time) []msg.WireID {
	if wm, ok := s.front.minWatermark(); !ok || wm >= t {
		return nil
	}
	return s.front.blockers(t)
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

// sendReply stages the reply to a two-way call. The reply's virtual time is
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
	ow.counts.Sent++
	s.gov.NoteData(reqWire.Peer, stamped)
	s.mu.Unlock()
	env := msg.NewCallReply(reqWire.Peer, seq, stamped, req.CallID, reply)
	env.Origin, env.Hops, env.Trace = ctx.origin, ctx.hops+1, ctx.trace
	if s.obs != nil {
		s.obs.Sent(ow.obs, env, "call reply")
	}
	s.out = append(s.out, env)
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
	ow := newOutWire(w, s.register(w, false))
	s.outputs[id] = ow
	return ow, true
}

// observe feeds calibration and commits any proposed determinism fault; a
// commit the engine refuses is recorded, not dropped.
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
	err := cal.Commit(fault)
	if err == nil {
		s.mu.Lock()
		s.recalibrations++
		s.mu.Unlock()
	}
	if s.obs != nil {
		s.obs.Recalibrated(s.comp.Name, fault.EffectiveVT, err)
	}
}
