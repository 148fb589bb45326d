package trace

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

// EventKind discriminates flight-recorder events.
type EventKind uint8

// Flight-recorder event kinds. Together they reconstruct the causal story
// of a run: message flow (deliver/send), the silence machinery (promises,
// probes, standing curiosities), the intrinsic overhead (pessimism-wait
// episodes), and the recovery protocol (checkpoints, replay, duplicate
// discard, failover).
const (
	// EvDeliver is a message handed to a component handler, stamped with
	// its dequeue virtual time.
	EvDeliver EventKind = iota + 1
	// EvSend is a data, call, or reply envelope emitted by a component.
	EvSend
	// EvSilence is a silence promise emitted on an output wire.
	EvSilence
	// EvProbe is a curiosity probe sent to a lagging input wire.
	EvProbe
	// EvPessimismStart marks a scheduler beginning to hold a deliverable
	// candidate while waiting for other senders' silence.
	EvPessimismStart
	// EvPessimismEnd marks the end of a pessimism-wait episode; WaitNanos
	// holds the measured real-time wait and Blame the last-holdout wire.
	EvPessimismEnd
	// EvCuriosityStanding marks a silence governor registering a standing
	// curiosity target it cannot yet answer.
	EvCuriosityStanding
	// EvCuriositySatisfied marks a standing curiosity target being covered.
	EvCuriositySatisfied
	// EvCheckpoint is a completed soft checkpoint (Note holds the encoded
	// size; MsgSeq the checkpoint sequence number).
	EvCheckpoint
	// EvReplayRequest is a replay-range request issued to a sender.
	EvReplayRequest
	// EvReplayServe is a replay-range request served from a replay buffer.
	EvReplayServe
	// EvDuplicateDrop is a duplicate message or reply discarded by
	// sequence/timestamp.
	EvDuplicateDrop
	// EvDeterminismFault is a logged determinism fault (paper §II.G.4): an
	// estimator recalibration, an audit-chain divergence detected during
	// replay, or a checkpoint whose restored chain disagrees with the
	// replica's record. Note names the cause; a recalibration the engine
	// refused to log says so, with the reason.
	EvDeterminismFault
	// EvFailover is a passive-replica activation.
	EvFailover
	// EvSourceEmit is an external input logged and injected by a source.
	EvSourceEmit
	// EvPeerUp marks an inter-engine connection established.
	EvPeerUp
	// EvPeerDown marks an inter-engine connection lost.
	EvPeerDown
)

var eventKindNames = [...]string{
	EvDeliver:            "deliver",
	EvSend:               "send",
	EvSilence:            "silence",
	EvProbe:              "probe",
	EvPessimismStart:     "pessimism-start",
	EvPessimismEnd:       "pessimism-end",
	EvCuriosityStanding:  "curiosity-standing",
	EvCuriositySatisfied: "curiosity-satisfied",
	EvCheckpoint:         "checkpoint",
	EvReplayRequest:      "replay-request",
	EvReplayServe:        "replay-serve",
	EvDuplicateDrop:      "duplicate-drop",
	EvDeterminismFault:   "determinism-fault",
	EvFailover:           "failover",
	EvSourceEmit:         "source-emit",
	EvPeerUp:             "peer-up",
	EvPeerDown:           "peer-down",
}

// String renders the kind name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses a kind name (for tools reading dump files).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventKindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one flight-recorder record. Every event carries both virtual
// time (the deterministic coordinate) and real time (the wall-clock
// coordinate); comparing runs must exclude RT and Seq, which depend on
// thread interleaving — the per-component subsequence of (Kind, Wire, VT,
// MsgSeq) is the deterministic signature.
type Event struct {
	// Seq is the recorder-assigned global sequence number (1-based over
	// the recorder's lifetime, including overwritten events).
	Seq uint64 `json:"seq"`
	// Kind discriminates the event.
	Kind EventKind `json:"kind"`
	// RT is the wall-clock time the event was recorded.
	RT time.Time `json:"rt"`
	// VT is the virtual time of the event (vt.Never when not applicable).
	VT vt.Time `json:"vt"`
	// Component is the component (or source/engine actor) the event
	// belongs to; empty for engine-level events.
	Component string `json:"component,omitempty"`
	// Wire is the wire involved, -1 when not applicable.
	Wire msg.WireID `json:"wire"`
	// MsgSeq is the per-wire message sequence number (or checkpoint
	// sequence for EvCheckpoint), 0 when not applicable.
	MsgSeq uint64 `json:"msgSeq,omitempty"`
	// Origin is the external input the event's message causally descends
	// from (zero when unknown or not applicable), and Hops the number of
	// handler boundaries crossed since it entered. Together they let a
	// trace reader reconstruct the full causal chain of one input.
	Origin msg.OriginID `json:"origin,omitempty"`
	Hops   uint32       `json:"hops,omitempty"`
	// WaitNanos is the measured real-time duration of a pessimism-wait
	// episode in nanoseconds (EvPessimismEnd only; 0 otherwise). It is the
	// machine-parseable counterpart of what used to live in Note.
	WaitNanos int64 `json:"waitNanos,omitempty"`
	// Blame encodes the blamed wire for EvPessimismEnd as wire ID + 1 so
	// the zero value means "no blame recorded" while wire 0 stays
	// representable. Use SetBlame/BlamedWire rather than touching it.
	Blame int32 `json:"blameWire,omitempty"`
	// Note carries free-form human-oriented detail (sizes, peers).
	Note string `json:"note,omitempty"`
}

// SetBlame records w as the pessimism holdout blamed for this event.
func (e *Event) SetBlame(w msg.WireID) { e.Blame = int32(w) + 1 }

// BlamedWire returns the blamed wire and whether one was recorded.
func (e Event) BlamedWire() (msg.WireID, bool) {
	if e.Blame == 0 {
		return -1, false
	}
	return msg.WireID(e.Blame - 1), true
}

// String renders the event compactly for logs and post-mortems.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %s", e.Seq, e.Kind)
	if e.Component != "" {
		s += " " + e.Component
	}
	if e.Wire >= 0 {
		s += " " + e.Wire.String()
	}
	if e.VT != vt.Never {
		s += " " + e.VT.String()
	}
	if e.MsgSeq != 0 {
		s += fmt.Sprintf(" seq=%d", e.MsgSeq)
	}
	if e.Origin != 0 {
		s += fmt.Sprintf(" origin=%s hop=%d", e.Origin, e.Hops)
	}
	if e.WaitNanos != 0 {
		s += fmt.Sprintf(" waited=%s", time.Duration(e.WaitNanos))
	}
	if w, ok := e.BlamedWire(); ok {
		s += fmt.Sprintf(" blame=%s", w)
	}
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}
