package engine

import (
	"fmt"
	"sync"

	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/vt"
	"repro/internal/wal"
)

// Source is the ingestion point for one external producer. Each emitted
// message is (a) stamped with a virtual time — the actual arrival time is
// safe because (b) the message is synchronously logged to the stable store
// before entering the system (paper §II.E). Only these external messages
// are ever logged.
//
// Source methods are safe for concurrent use; messages are assigned
// strictly increasing sequence numbers and virtual times in call order.
type Source struct {
	e      *Engine
	name   string
	wire   *topo.Wire
	target *hosted

	mu       sync.Mutex
	seq      uint64
	lastVT   vt.Time
	promised vt.Time

	counts SourceCounts // guarded by mu

	obs any // the observer's handle (nil when unobserved)
}

func newSource(e *Engine, name string, w *topo.Wire, target *hosted) *Source {
	s := &Source{e: e, name: name, wire: w, target: target, lastVT: vt.Never, promised: vt.Never,
		counts: SourceCounts{Name: name, Wire: w.ID}}
	if e.obs != nil {
		s.obs = e.obs.Source(name, w.ID)
	}
	return s
}

// Emit ingests one message stamped with the current (real) time, returning
// the assigned virtual time.
func (s *Source) Emit(payload any) (vt.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.e.clock()
	if t <= s.lastVT {
		t = s.lastVT.Add(1)
	}
	if t <= s.promised {
		t = s.promised.Add(1)
	}
	return t, s.emitLocked(t, payload)
}

// EmitAt ingests one message with an explicit virtual time — the
// deterministic-workload path used by tests and experiment harnesses.
// The time must exceed every previously emitted time and silence promise.
func (s *Source) EmitAt(t vt.Time, payload any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t <= s.lastVT {
		return fmt.Errorf("engine: source %q: EmitAt(%v) not after last emit %v", s.name, t, s.lastVT)
	}
	if t <= s.promised {
		return fmt.Errorf("engine: source %q: EmitAt(%v) violates silence promise through %v", s.name, t, s.promised)
	}
	return s.emitLocked(t, payload)
}

// ErrShed reports an external input refused because the engine's buffered
// replay state hit its configured bound (ShedBufferedLimit) — typically
// because a peer is down and unacked envelopes cannot be trimmed. The
// input never entered the system (not logged, not delivered), so the
// producer may retry later or drop it; determinism of everything already
// ingested is unaffected.
var ErrShed = fmt.Errorf("engine: input shed: buffered replay state at limit")

func (s *Source) emitLocked(t vt.Time, payload any) error {
	if limit := s.e.cfg.ShedBufferedLimit; limit > 0 && s.e.buffers.total() >= limit {
		s.counts.Shed++
		return fmt.Errorf("source %q: %w (%d buffered)", s.name, ErrShed, s.e.buffers.total())
	}
	seq := s.seq + 1
	if err := s.e.log.AppendInput(wal.InputRecord{Source: s.name, Seq: seq, VT: t, Payload: payload}); err != nil {
		return fmt.Errorf("engine: log input for source %q: %w", s.name, err)
	}
	s.seq = seq
	s.lastVT = t
	s.counts.Emits++
	// Provenance: the origin of everything this input causes is the source
	// wire plus the logged sequence number — both deterministic, so replayed
	// injections (restoreCursor, repairGaps) recreate the identical origin.
	env := msg.NewData(s.wire.ID, seq, t, payload)
	env.Origin = msg.NewOrigin(s.wire.ID, seq)
	if s.e.obs != nil {
		env.Trace = s.e.obs.TraceMark(env.Origin)
		s.e.obs.Emitted(s.obs, env)
	}
	s.target.sch.Deliver(env)
	return nil
}

// Quiesce promises that the source will emit nothing at or before the
// given virtual time; future emits are forced past it.
func (s *Source) Quiesce(through vt.Time) {
	s.mu.Lock()
	if through <= s.promised {
		s.mu.Unlock()
		return
	}
	s.promised = through
	seq := s.seq
	s.mu.Unlock()
	s.target.sch.Deliver(msg.NewSilenceAfter(s.wire.ID, through, seq))
}

// End promises the source will never emit again (end of stream).
func (s *Source) End() { s.Quiesce(vt.Max) }

// restoreCursor reinstates the emission cursor after a failover and
// re-injects every logged message at or beyond the restored component's
// delivery cursor (duplicates are discarded by sequence).
//
// The cursor is the maximum of what the log still holds and what the
// checkpoint proves was already consumed (fromSeq−1 / lastVT): checkpoints
// trim the log, so the log alone may under-state how far emission got —
// re-using those sequence numbers would make fresh emissions look like
// duplicates downstream.
//
// The log refuses a fromSeq at or below what it has trimmed: trims follow
// the newest checkpoint, so a restore that landed on an older one (a torn
// newest entry in the durable store) would otherwise replay the suffix and
// never notice that the inputs in between are gone.
func (s *Source) restoreCursor(fromSeq uint64, lastVT vt.Time) error {
	recs, err := s.e.log.Inputs(s.name, fromSeq)
	if s.e.obs != nil {
		s.e.obs.LogReplayed(s.obs, fromSeq)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.e.cfg.ColdStart {
		s.counts.ColdStartReplayed += uint64(len(recs))
	}
	if fromSeq > 0 && fromSeq-1 > s.seq {
		s.seq = fromSeq - 1
	}
	if lastVT > s.lastVT {
		s.lastVT = lastVT
	}
	for _, r := range recs {
		if r.Seq > s.seq {
			s.seq = r.Seq
		}
		if r.VT > s.lastVT {
			s.lastVT = r.VT
		}
	}
	s.mu.Unlock()
	for _, r := range recs {
		env := msg.NewData(s.wire.ID, r.Seq, r.VT, r.Payload)
		env.Origin = msg.NewOrigin(s.wire.ID, r.Seq)
		// Re-stamp the sampling decision from the logged origin: the same
		// answer the original emission stamped, so replayed envelopes stay
		// consistently traced.
		if s.e.obs != nil {
			env.Trace = s.e.obs.TraceMark(env.Origin)
		}
		s.target.sch.Deliver(env)
	}
	return nil
}

// answerSourceProbe responds to a curiosity probe on a source wire with
// the source's best current silence knowledge.
func (e *Engine) answerSourceProbe(w *topo.Wire) {
	for _, s := range e.sources {
		if s.wire.ID != w.ID {
			continue
		}
		s.mu.Lock()
		promise := s.lastVT
		if t := e.clock().Add(-1); t > promise {
			promise = t
		}
		if promise <= s.promised {
			s.mu.Unlock()
			return // nothing new to promise
		}
		s.promised = promise
		s.counts.Silences++
		seq := s.seq
		s.mu.Unlock()
		if e.obs != nil {
			e.obs.SourceSilence(s.obs, promise)
		}
		s.target.sch.Deliver(msg.NewSilenceAfter(w.ID, promise, seq))
		return
	}
}

// advanceSourceSilence pushes fresh silence promises for all hosted
// real-time sources (the engine's periodic source watermark).
func (e *Engine) advanceSourceSilence() {
	now := e.clock().Add(-1)
	for _, s := range e.sortedSources() {
		s.mu.Lock()
		promise := now
		if s.lastVT > promise {
			promise = s.lastVT
		}
		if promise <= s.promised {
			s.mu.Unlock()
			continue
		}
		s.promised = promise
		s.counts.Silences++
		seq := s.seq
		s.mu.Unlock()
		s.target.sch.Deliver(msg.NewSilenceAfter(s.wire.ID, promise, seq))
	}
}

func (e *Engine) sortedSources() []*Source {
	out := make([]*Source, 0, len(e.sources))
	for _, s := range e.sources {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].name < out[j-1].name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
