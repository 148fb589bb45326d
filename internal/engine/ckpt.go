package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/vt"
)

// fullCheckpointEvery bounds delta chains: a chain is one base — a
// checkpoint in which every component ships full handler state — and at
// most N-1 checkpoints after it, so a restore — by the passive replica,
// from the durable store's chain, or of a rewind point — folds at most N-1
// deltas onto a full capture. The bound is the engine's, not a
// component's: the holders of the checkpoints start a new chain only at a
// base, and components each counting to their own next full capture would
// drift apart and never produce one.
const fullCheckpointEvery = 10

// Checkpoint takes one soft checkpoint: a quiescent capture of every
// hosted component plus the replay buffers, applied to the configured
// backup. A component's delivery loop is held only while its state is
// staged (for a checkpoint.Map, a copy of the touched entries); encoding
// and the backup's Apply — with a durable store, its fsyncs — run after the
// loop is released. On success it trims the stable log and local buffers
// and sends stability acks to remote senders. It returns the checkpoint
// sequence number.
func (e *Engine) Checkpoint() (uint64, error) {
	if e.cfg.Backup == nil {
		return 0, fmt.Errorf("engine: %q has no backup configured", e.name)
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	start := time.Now()
	comps := make(map[string]checkpoint.ComponentState, len(e.comps))
	var bytesTotal int
	var offLoop time.Duration
	maxClock := vt.Zero
	// A component may still answer with a full capture; that does not start
	// a chain, so it does not restart the count either.
	wantDelta := e.chainLen > 0 && e.chainLen < fullCheckpointEvery
	for _, h := range e.sortedHosted() {
		var cs checkpoint.ComponentState
		var encode func() ([]byte, error)
		var err error
		var held time.Duration
		h.sch.WithQuiescent(func(st sched.State) {
			t := time.Now()
			cs.Sched = st
			cs.Kind, encode, err = checkpoint.Stage(h.spec.State, wantDelta)
			held = time.Since(t)
		})
		if e.obs != nil {
			e.obs.CheckpointHeld(held)
		}
		if err == nil {
			t := time.Now()
			cs.Handler, err = encode()
			offLoop += time.Since(t)
		}
		if err != nil {
			// A failed capture may have consumed dirty sets: the next
			// checkpoint has to be a base.
			e.chainLen = 0
			return 0, fmt.Errorf("engine: checkpoint %q: %w", h.name, err)
		}
		if cs.Sched.Clock > maxClock {
			maxClock = cs.Sched.Clock
		}
		if h.cal != nil {
			st := h.cal.State()
			cs.Estimator = &st
		}
		bytesTotal += len(cs.Handler)
		comps[h.name] = cs
	}

	// A sequence number names an attempt, not a success: a backup that took
	// in part of a failed checkpoint (the warm replica of a tee whose
	// durable half failed) must not mistake the full retry for a duplicate.
	e.ckptSeq++
	ck := &checkpoint.Checkpoint{
		Engine:     e.name,
		Seq:        e.ckptSeq,
		VT:         maxClock,
		Components: comps,
		Buffers:    e.buffers.snapshot(),
	}
	applyStart := time.Now()
	if err := e.cfg.Backup.Apply(ck); err != nil {
		e.chainLen = 0 // deltas may be lost with it
		return 0, fmt.Errorf("engine: apply checkpoint: %w", err)
	}
	offLoop += time.Since(applyStart)
	e.lastCkptVT = maxClock
	if ck.IsBase() {
		e.chainLen = 1
	} else {
		e.chainLen++
	}
	e.count(func(c *Counts) {
		if ck.IsBase() {
			c.FullCheckpoints++
		} else {
			c.DeltaCheckpoints++
		}
		c.CheckpointBytes += uint64(bytesTotal)
	})
	if e.obs != nil {
		e.obs.Checkpointed(maxClock, ck.Seq, ck.IsBase(), bytesTotal, offLoop, time.Since(start))
	}
	e.afterCheckpoint(ck)
	return ck.Seq, nil
}

// LastCheckpoint returns the virtual time of the newest checkpoint this
// engine has taken (or restored from), vt.Zero before the first, and the
// length of the chain the backup holds: the newest base and the deltas
// applied since. It waits for a checkpoint in progress.
func (e *Engine) LastCheckpoint() (at vt.Time, chain int) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return e.lastCkptVT, e.chainLen
}

// MaxComponentClock returns the newest component clock on this engine —
// the live VT frontier a rewind would have to replay up to.
func (e *Engine) MaxComponentClock() vt.Time {
	m := vt.Zero
	for _, h := range e.comps {
		if c := h.sch.Clock(); c > m {
			m = c
		}
	}
	return m
}

// afterCheckpoint performs the stability housekeeping a durable checkpoint
// enables: trim the input log, trim local replay buffers, and acknowledge
// remote senders so they can trim theirs (paper: checkpoints bound both
// recovery time and replay-buffer growth).
func (e *Engine) afterCheckpoint(ck *checkpoint.Checkpoint) {
	var acks []msg.Envelope
	for _, h := range e.sortedHosted() {
		cs := ck.Components[h.name]
		// Input wires: sorted for deterministic ack order.
		wires := make([]msg.WireID, 0, len(cs.Sched.Inputs))
		for wid := range cs.Sched.Inputs {
			wires = append(wires, wid)
		}
		sort.Slice(wires, func(i, j int) bool { return wires[i] < wires[j] })
		for _, wid := range wires {
			cursor := cs.Sched.Inputs[wid].NextSeq // next needed; delivered through cursor-1
			if cursor == 0 {
				continue
			}
			delivered := cursor - 1
			w := e.tp.Wire(wid)
			switch {
			case w.From == topo.External:
				if src := e.sourceByWire(wid); src != nil {
					_ = e.log.TrimInputs(src.name, delivered)
				}
			case e.tp.EngineOf(w.From) == e.name:
				e.buffers.trim(wid, delivered)
			default:
				acks = append(acks, msg.NewAck(wid, delivered))
			}
		}
		// Reply wires: every call with ID <= NextCall completed before the
		// snapshot (snapshots are quiescent), so its reply is stable.
		for _, wid := range h.comp.ReplyInputs {
			if cs.Sched.NextCall == 0 {
				continue
			}
			w := e.tp.Wire(wid)
			if e.tp.EngineOf(w.From) == e.name {
				e.buffers.trim(wid, cs.Sched.NextCall)
			} else {
				acks = append(acks, msg.NewAck(wid, cs.Sched.NextCall))
			}
		}
	}
	e.dispatch(acks)
}

func (e *Engine) sourceByWire(w msg.WireID) *Source {
	for _, s := range e.sources {
		if s.wire.ID == w {
			return s
		}
	}
	return nil
}

// NewFromBackup builds a replacement engine from the passive replica's
// stored state: the paper's failover (§II.F.3). The returned engine is
// inert; Start brings it up, replays the input-log suffix into restored
// components, and re-establishes connections (which re-drives remote
// replay).
func NewFromBackup(cfg Config, store *checkpoint.ReplicaStore) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, h := range e.sortedHosted() {
		schedState, estState, err := store.RestoreInto(h.name, h.spec.State)
		if err != nil {
			return nil, fmt.Errorf("engine: restore %q: %w", h.name, err)
		}
		if err := h.sch.Restore(schedState); err != nil {
			return nil, err
		}
		h.restoredState = schedState
		// Verify the checkpoint's audit chain against the replica-side
		// record: the chain value after AuditCount deliveries must match
		// what the original generation recorded at that index (§II.G.4).
		// A mismatch means the checkpointed prefix diverged from the run
		// the replica witnessed — a determinism fault.
		if audit := e.cfg.Audit; audit != nil && schedState.AuditCount > 0 {
			if entry, ok := audit.At(h.name, schedState.AuditCount-1); ok && entry.Chain != schedState.AuditChain {
				e.count(func(c *Counts) { bump(&c.ChainMismatches, h.name) })
				if e.obs != nil {
					e.obs.ChainMismatch(h.name, schedState.Clock, schedState.AuditCount-1)
				}
			}
		}
		faults, err := e.log.Faults(h.name)
		if err != nil {
			return nil, err
		}
		if h.cal != nil {
			if estState != nil {
				if err := h.cal.SetState(*estState); err != nil {
					return nil, fmt.Errorf("engine: restore estimator of %q: %w", h.name, err)
				}
			}
			// Re-apply determinism faults logged after the checkpoint; the
			// synchronous fault log is the source of truth (§II.G.4).
			last := lastEpochStart(h.cal)
			for _, f := range faults {
				if f.Silence != nil {
					continue // silence faults re-applied below
				}
				if f.Fault.EffectiveVT < last {
					continue // already reflected in the checkpointed state
				}
				if err := h.cal.Apply(f.Fault); err != nil {
					return nil, fmt.Errorf("engine: replay fault for %q: %w", h.name, err)
				}
			}
		}
		// Silence configuration is not part of the checkpointed component
		// state, so re-install every logged silence fault in log order: the
		// scheduler applies boundaries at or before the restored clock
		// immediately (later entries overwrite earlier ones, converging on
		// the newest past config) and queues strictly-future ones.
		for _, f := range faults {
			if f.Silence == nil {
				continue
			}
			h.sch.ApplySilenceEpoch(f.Silence.Config, f.Silence.EffectiveVT)
		}
		if schedState.Clock > e.lastCkptVT {
			e.lastCkptVT = schedState.Clock // restored from a checkpoint at this VT
		}
	}
	e.buffers.restore(e.tp, store.Buffers())
	e.ckptSeq = store.Seq()
	e.restored = true
	return e, nil
}

func lastEpochStart(cal *estimator.Calibrated) vt.Time {
	st := cal.State()
	if n := len(st.Epochs); n > 0 {
		return st.Epochs[n-1].From
	}
	return 0
}

// replayAfterRestore re-drives local recovery once schedulers are running:
// buffered local-wire messages are re-delivered (duplicates discard), and
// each source's logged suffix is re-injected. Remote replay is driven by
// the connection hooks (onPeerConnected).
func (e *Engine) replayAfterRestore() error {
	// Record activation before replay so the flight dump reads in causal
	// order: checkpoint → failover → replay → duplicate drops.
	e.count(func(c *Counts) { c.Failovers++ })
	if e.obs != nil {
		e.obs.Failover(e.ckptSeq)
	}
	// Local wire buffers: deliver everything; receivers dedup by sequence.
	// Wires are visited in ID order so the recorded replay events are
	// deterministic.
	bufs := e.buffers.snapshot()
	wids := make([]msg.WireID, 0, len(bufs))
	for wid := range bufs {
		wids = append(wids, wid)
	}
	sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
	for _, wid := range wids {
		w := e.tp.Wire(wid)
		if w.To == topo.External || e.tp.EngineOf(w.To) != e.name {
			continue
		}
		buf := bufs[wid]
		if len(buf) > 0 && e.obs != nil {
			e.obs.ReplayServed(wid, buf[0].Seq, len(buf), true)
		}
		e.dispatch(buf)
	}
	// Source logs: replay from each restored component's delivery cursor.
	for _, h := range e.sortedHosted() {
		for wid, ist := range h.restoredState.Inputs {
			w := e.tp.Wire(wid)
			if w.From != topo.External {
				continue
			}
			if src := e.sourceByWire(wid); src != nil {
				if err := src.restoreCursor(ist.NextSeq, ist.LastVT); err != nil {
					// Running on would leave the component short of inputs it
					// had acknowledged: silent loss, not recovery.
					return fmt.Errorf("engine: %q: replay source %q: %w", e.name, src.name, err)
				}
			}
		}
	}
	return nil
}
