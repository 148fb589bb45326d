package sched

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vt"
)

// Ctx is the deterministic execution context passed to a handler for one
// message. It provides the component's only sanctioned views of time and
// randomness, and the output operations (one-way Send, two-way Call).
//
// A Ctx is valid only for the duration of the OnMessage invocation it was
// passed to and must not be retained or shared across goroutines. The
// scheduler enforces this by reuse: it owns a single Ctx and resets it for
// every delivery, so a retained pointer observes the next message's time
// and provenance, never its own.
type Ctx struct {
	s *Scheduler
	// dequeue is the virtual time at which the message was dequeued.
	dequeue vt.Time
	// handlerVT is the virtual completion time of the handler so far: the
	// dequeue time plus the estimator's cost, advanced further by call
	// replies. Outputs are stamped relative to it.
	handlerVT vt.Time
	// origin and hops carry the provenance of the message being handled;
	// every output envelope inherits origin with hops+1. trace carries the
	// origin's head-sampling decision (msg.Envelope.Trace), inherited
	// unchanged so a rate change between hops cannot half-trace an origin.
	origin msg.OriginID
	hops   uint32
	trace  int8
}

// Now returns the virtual time at which the current message was dequeued —
// the component's deterministic substitute for reading the wall clock
// (the paper's permitted "timing service").
func (c *Ctx) Now() vt.Time { return c.dequeue }

// Rand returns the component's deterministic random generator. Its state
// is checkpointed, so replayed executions draw identical values.
func (c *Ctx) Rand() *stats.RNG { return c.s.rng }

// Send emits a one-way message on the named output port. The message is
// stamped with the deterministic virtual time at which it will arrive at
// the receiver: the handler's estimated completion time plus the wire's
// delay estimate (and past any hyper-aggressive silence floor).
func (c *Ctx) Send(port string, payload any) error {
	s := c.s
	s.mu.Lock()
	ow, ok := s.byPort[port]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("sched: component %q has no output port %q", s.comp.Name, port)
	}
	if ow.w.Kind == topo.WireCallRequest {
		s.mu.Unlock()
		return fmt.Errorf("sched: port %q of %q is a call port; use Call", port, s.comp.Name)
	}
	stamp := c.handlerVT.Add(ow.w.Delay)
	if floor := s.gov.OutputFloor(); floor != vt.Never && stamp <= floor {
		stamp = floor.Add(1)
	}
	seq, stamped := ow.next(stamp)
	s.gov.NoteData(ow.w.ID, stamped)
	s.mu.Unlock()

	ow.m.Sent.Inc()
	env := msg.NewData(ow.w.ID, seq, stamped, payload)
	env.Origin, env.Hops, env.Trace = c.origin, c.hops+1, c.trace
	s.rec.Record(trace.Event{Kind: trace.EvSend, VT: stamped, Component: s.comp.Name, Wire: ow.w.ID, MsgSeq: seq, Origin: env.Origin, Hops: env.Hops})
	s.cfg.Router.Route(env)
	return nil
}

// Call performs a blocking two-way call on the named call port and returns
// the reply payload. The caller's virtual clock advances to the reply's
// virtual time, so computation after the call is stamped later than the
// callee's processing — preserving causal virtual-time order.
func (c *Ctx) Call(port string, payload any) (any, error) {
	s := c.s
	s.mu.Lock()
	ow, ok := s.byPort[port]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: component %q has no output port %q", s.comp.Name, port)
	}
	if ow.w.Kind != topo.WireCallRequest {
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: port %q of %q is not a call port; use Send", port, s.comp.Name)
	}
	stamp := c.handlerVT.Add(ow.w.Delay)
	if floor := s.gov.OutputFloor(); floor != vt.Never && stamp <= floor {
		stamp = floor.Add(1)
	}
	seq, stamped := ow.next(stamp)
	s.nextCall++
	callID := s.nextCall
	replyCh := make(chan msg.Envelope, 1)
	s.waiters[callID] = replyCh
	s.gov.NoteData(ow.w.ID, stamped)
	s.mu.Unlock()

	ow.m.Sent.Inc()
	env := msg.NewCallRequest(ow.w.ID, seq, stamped, callID, payload)
	env.Origin, env.Hops, env.Trace = c.origin, c.hops+1, c.trace
	s.rec.Record(trace.Event{Kind: trace.EvSend, VT: stamped, Component: s.comp.Name, Wire: ow.w.ID, MsgSeq: seq, Origin: env.Origin, Hops: env.Hops, Note: "call request"})
	s.cfg.Router.Route(env)

	select {
	case reply := <-replyCh:
		if reply.VT > c.handlerVT {
			c.handlerVT = reply.VT
		}
		return reply.Payload, nil
	case <-s.stop:
		s.mu.Lock()
		delete(s.waiters, callID)
		s.mu.Unlock()
		return nil, ErrStopped
	}
}
