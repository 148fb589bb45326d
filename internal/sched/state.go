package sched

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/vt"
)

// State is the scheduler's contribution to a component checkpoint. It
// contains everything needed for a recovered replica to continue
// deterministically: the virtual clock, per-wire delivery cursors (for
// duplicate discard and replay requests), per-wire output counters (so
// regenerated outputs carry identical sequence numbers and virtual times),
// the PRNG state, the call-ID counter, and the hyper-aggressive output
// floor.
//
// Pending queue contents are deliberately excluded: undelivered messages
// are re-obtained from the senders' replay buffers (or the external input
// log) after failover, which is exactly the paper's recovery protocol
// (§II.F.4).
type State struct {
	Clock    vt.Time
	RNG      [4]uint64
	NextCall uint64
	Floor    vt.Time
	MaxDlvd  uint64
	Inputs   map[msg.WireID]InputState
	Outputs  map[msg.WireID]OutputState

	// AuditChain/AuditCount persist the determinism audit chain (§II.G.4):
	// the rolling hash over the delivered prefix and its length. A replica
	// restoring the checkpoint verifies them against its recorded chain and
	// continues the chain from here through replay.
	AuditChain uint64
	AuditCount uint64
}

// InputState is the delivery cursor of one input wire.
type InputState struct {
	NextSeq uint64
	LastVT  vt.Time
}

// OutputState is the emission cursor of one output wire.
type OutputState struct {
	Seq        uint64
	LastSentVT vt.Time
}

// WithQuiescent runs fn at a moment when no handler is executing, passing
// the scheduler state captured at that same moment. The worker cannot start
// a new handler until fn returns, so a caller can capture the handler's
// application state inside fn and know it is consistent with the returned
// scheduler state — this is how the engine takes component checkpoints.
// fn must not call methods of this Scheduler.
//
// It also waits for the worker's staged outputs to be routed: the state
// must not count output seqs whose envelopes are not in the replay buffers.
//
// Quiescence is condition-variable based: the worker signals s.quiet when
// a handler finishes or a staged batch is routed, and yields whenever
// waiters are registered, so a checkpoint blocks for at most one handler
// invocation and one flush without any busy-wait.
func (s *Scheduler) WithQuiescent(fn func(st State)) {
	defer s.wake() // the worker yields to waiters (step)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quietWaiters.Add(1)
	for s.inFlight != vt.Never || s.unrouted.Load() {
		s.quiet.Wait()
	}
	s.quietWaiters.Add(-1)
	fn(s.snapshotLocked())
}

func (s *Scheduler) snapshotLocked() State {
	st := State{
		Clock:      s.clock,
		RNG:        s.rng.State(),
		NextCall:   s.nextCall,
		Floor:      s.gov.OutputFloor(),
		MaxDlvd:    s.maxDlvd,
		Inputs:     make(map[msg.WireID]InputState, len(s.inputs)),
		Outputs:    make(map[msg.WireID]OutputState, len(s.outputs)),
		AuditChain: s.auditChain,
		AuditCount: s.auditCount,
	}
	for id, in := range s.inputs {
		// The cursor reflects delivered messages only: queued-but-undelivered
		// messages will be replayed by their senders.
		delivered := in.nextSeq - uint64(in.q.n) - uint64(len(in.holdback))
		st.Inputs[id] = InputState{NextSeq: delivered, LastVT: in.lastVT}
	}
	for id, ow := range s.outputs {
		st.Outputs[id] = OutputState{Seq: ow.seq, LastSentVT: ow.lastSentVT}
	}
	return st
}

// Restore installs a checkpointed state. It must be called before Run.
func (s *Scheduler) Restore(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("sched: cannot restore running component %q", s.comp.Name)
	}
	s.clock = st.Clock
	s.rng.SetState(st.RNG)
	s.nextCall = st.NextCall
	// Arrivals count on from the delivered prefix, so the first deliveries
	// after a restore are not out of real-time order against it.
	s.maxDlvd = st.MaxDlvd
	s.arrival = st.MaxDlvd
	if st.AuditCount > 0 || st.AuditChain != 0 {
		s.auditChain = st.AuditChain
		s.auditCount = st.AuditCount
	}
	if st.Floor != vt.Never {
		s.gov.RestoreFloor(st.Floor)
	}
	for id, ist := range st.Inputs {
		in, ok := s.inputs[id]
		if !ok {
			return fmt.Errorf("sched: checkpoint references unknown input wire %v", id)
		}
		in.nextSeq = ist.NextSeq
		in.lastVT = ist.LastVT
		// Everything delivered so far is silent history; the watermark
		// restarts at the last delivered VT and grows from fresh promises.
		if ist.LastVT > in.watermark {
			in.watermark = ist.LastVT
			s.front.update(in)
		}
	}
	for id, ost := range st.Outputs {
		ow, ok := s.outputs[id]
		if !ok {
			if int(id) < 0 || int(id) >= len(s.cfg.Topo.Wires()) {
				return fmt.Errorf("sched: checkpoint references unknown output wire %v", id)
			}
			// Reply wires are created lazily; materialize them.
			var created bool
			if ow, created = s.replyOut(id); !created {
				return fmt.Errorf("sched: checkpoint references unknown output wire %v", id)
			}
		}
		ow.seq = ost.Seq
		ow.lastSentVT = ost.LastSentVT
	}
	return nil
}

// ReplayNeeds reports, per input wire, the first sequence number the
// component needs re-sent (its delivery cursor). The engine sends these as
// replay requests after a failover.
func (s *Scheduler) ReplayNeeds() map[msg.WireID]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[msg.WireID]uint64, len(s.inputs))
	for id, in := range s.inputs {
		delivered := in.nextSeq - uint64(in.q.n) - uint64(len(in.holdback))
		out[id] = delivered
	}
	return out
}

// QueueDepths reports, per input wire, the messages queued on it, held-back
// arrivals included: the value a metrics reader gathers, read under the
// lock rather than pushed on every enqueue and pop.
func (s *Scheduler) QueueDepths() map[msg.WireID]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[msg.WireID]int, len(s.inputs))
	for id, in := range s.inputs {
		out[id] = in.q.n + len(in.holdback)
	}
	return out
}

// Gaps reports, per input wire that has messages parked behind a sequence
// gap, the first missing sequence number. The engine's gap-repair loop
// turns these into replay requests (link loss recovery, paper §II.F.4).
func (s *Scheduler) Gaps() map[msg.WireID]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out map[msg.WireID]uint64
	for id, in := range s.inputs {
		if from, ok := in.gapFrom(); ok {
			if out == nil {
				out = make(map[msg.WireID]uint64)
			}
			out[id] = from
		}
	}
	return out
}
