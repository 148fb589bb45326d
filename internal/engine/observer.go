package engine

import (
	"time"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/vt"
)

// Observer receives an engine's reports: its schedulers' (the embedded
// sched.Observer is what every hosted scheduler gets) and its own about
// checkpoints, recovery, peer links and sources. Config.Metrics holds one;
// nil is off, and each report site then costs one branch. The trace
// package's *Metrics implements it; the engine imports no observability
// package. Source reports carry the handle Source returned; a dial loop
// reports its attempts through the func Dialer returns. What the engine
// holds anyway (breaker positions, frame counts, the checkpoint chain) is
// not reported: a reader asks for it (PeerHealth, LastCheckpoint). An
// implementation must not block or call back into the engine.
type Observer interface {
	sched.Observer

	// CheckpointHeld reports one component's delivery loop held while a
	// checkpoint staged its state. Checkpointed reports checkpoint seq at VT
	// at taken by the backup: base or delta, its handler-state bytes, the
	// time after the loops were released and the whole call. ChainMismatch
	// reports a restored component whose audit chain differs from the
	// record at delivery index delivery.
	CheckpointHeld(held time.Duration)
	Checkpointed(at vt.Time, seq uint64, base bool, bytes int, offLoop, took time.Duration)
	ChainMismatch(component string, at vt.Time, delivery uint64)
	// Failover reports a replica activated from checkpoint seq, before its
	// replay. ReplayServed reports n buffered envelopes of wire w re-sent
	// from seq on, to a peer's request or, local, after a restore;
	// ReplayRequested a replay request for w from seq on.
	Failover(seq uint64)
	ReplayServed(w msg.WireID, seq uint64, n int, local bool)
	ReplayRequested(w msg.WireID, seq uint64)
	// Dialer registers the dial loop to peer, which calls redial per
	// attempt. PeerUp reports a connection to peer joining, PeerDown the
	// live one dropped, and Fenced a handshake refused for its stale
	// generation.
	Dialer(peer string) (redial func())
	PeerUp(peer string)
	PeerDown(peer string)
	Fenced(peer string, gen uint64)
	// SilencesCoalesced reports n peer-bound silence promises absorbed by a
	// newer one for the same wire while a flush was in progress.
	SilencesCoalesced(n int)
	// Source registers an external source feeding wire w. Emitted reports a
	// logged input, SourceSilence a promise through VT promise answering a
	// curiosity probe, and LogReplayed the logged inputs from seq on
	// re-injected after a restore.
	Source(name string, w msg.WireID) any
	Emitted(src any, env msg.Envelope)
	SourceSilence(src any, promise vt.Time)
	LogReplayed(src any, seq uint64)
	// TraceMark is the span-sampling decision an input from origin
	// carries: msg.TraceSampled, msg.TraceUnsampled, or zero (undecided).
	TraceMark(origin msg.OriginID) int8
}
