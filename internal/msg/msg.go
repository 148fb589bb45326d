// Package msg defines the message envelopes exchanged between TART
// components and engines: data messages stamped with virtual times, silence
// promises, curiosity probes, two-way call requests/replies, and the
// recovery-protocol messages (replay requests and stability acks).
//
// Every envelope travels on a wire. Wires are numbered deterministically by
// the topology (package topo), which gives the runtime its deterministic
// tie-breaking rule: when two messages carry the identical virtual time, the
// one on the lower-numbered wire is delivered first (paper §II.E, fn. 2).
package msg

import (
	"encoding/json"
	"fmt"

	"repro/internal/vt"
)

// WireID identifies a directed wire between two components (or between an
// external source/sink and a component). IDs are assigned deterministically
// from the topology so every engine, replica, and replay agrees on them.
type WireID int32

// String renders the wire ID.
func (w WireID) String() string { return fmt.Sprintf("w%d", int32(w)) }

// OriginID identifies the external input that (transitively) caused a
// message: the source wire it entered on and its per-wire sequence number,
// packed into one word. Because both coordinates are deterministic — wires
// are numbered by the topology and source sequences are logged in the WAL —
// the origin of every derived message is identical across the original run,
// replay, and the passive replica, which is what makes provenance usable as
// a causal key rather than a per-run annotation.
//
// The zero OriginID means "unknown provenance": control traffic, messages
// predating provenance stamping, or envelopes synthesized outside a source.
type OriginID uint64

// originSeqBits is the width of the sequence field inside an OriginID; the
// wire ID occupies the bits above it. 2^40 inputs per source wire outlasts
// any run we care about, and 2^24 wires outlasts any topology.
const originSeqBits = 40

// NewOrigin packs a source wire and its input sequence number into an
// origin ID.
func NewOrigin(w WireID, seq uint64) OriginID {
	return OriginID(uint64(uint32(w))<<originSeqBits | seq&(1<<originSeqBits-1))
}

// Wire returns the source wire the originating input entered on.
func (o OriginID) Wire() WireID { return WireID(int32(uint64(o) >> originSeqBits)) }

// Seq returns the originating input's per-wire sequence number.
func (o OriginID) Seq() uint64 { return uint64(o) & (1<<originSeqBits - 1) }

// String renders the origin as "w<wire>#<seq>", or "-" for the zero value.
func (o OriginID) String() string {
	if o == 0 {
		return "-"
	}
	return fmt.Sprintf("%s#%d", o.Wire(), o.Seq())
}

// ParseOrigin parses the String form ("w3#17", or "-" for the zero origin)
// back into an OriginID.
func ParseOrigin(s string) (OriginID, error) {
	if s == "-" {
		return 0, nil
	}
	var w int32
	var seq uint64
	if _, err := fmt.Sscanf(s, "w%d#%d", &w, &seq); err != nil {
		return 0, fmt.Errorf("msg: bad origin %q (want w<wire>#<seq>): %v", s, err)
	}
	return NewOrigin(WireID(w), seq), nil
}

// MarshalJSON renders the origin in its String form so flight dumps are
// grep-able by origin.
func (o OriginID) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", o.String())), nil
}

// UnmarshalJSON parses the String form (for tools reading dump files).
func (o *OriginID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if s == "-" || s == "" {
		*o = 0
		return nil
	}
	parsed, err := ParseOrigin(s)
	if err != nil {
		return err
	}
	*o = parsed
	return nil
}

// Kind discriminates envelope types.
type Kind int8

// Envelope kinds. Data carries an application payload; Silence carries a
// promise; Probe requests a fresh promise; CallRequest/CallReply implement
// two-way calls; ReplayRequest and Ack implement the recovery protocol.
const (
	KindData Kind = iota + 1
	KindSilence
	KindProbe
	KindCallRequest
	KindCallReply
	KindReplayRequest
	KindAck
	// KindHello is the connection handshake/heartbeat between engines;
	// Payload carries the sending engine's name. It never touches wires.
	KindHello
)

var kindNames = map[Kind]string{
	KindData:          "data",
	KindSilence:       "silence",
	KindProbe:         "probe",
	KindCallRequest:   "call",
	KindCallReply:     "reply",
	KindReplayRequest: "replay-request",
	KindAck:           "ack",
	KindHello:         "hello",
}

// String renders the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int8(k))
}

// Envelope is the unit of communication on a wire.
//
// For KindData and KindCallRequest/KindCallReply, VT is the virtual time at
// which the message arrives at the receiver's logical queue and Seq is the
// per-wire sequence number (starting at 1) used for reliable-FIFO delivery,
// gap detection, and duplicate discard. A data message at VT t additionally
// implies silence on its wire through t (per-wire VTs are strictly
// increasing).
//
// For KindSilence, Promise is the time through which the sender guarantees
// it will send no further message at or before; Seq (when non-zero) attests
// to the sender's data prefix at promise time — the receiver must hold the
// promise back until it has contiguously received sequence numbers through
// Seq, lest the promise overtake lost-but-replayable data. VT is unused.
//
// For KindProbe, Promise carries the receiver's target time: the sender
// should keep answering with extended promises until its promise reaches the
// target (curiosity-driven silence, paper §II.G.3).
//
// For KindReplayRequest, Seq is the first sequence number the receiver is
// missing (resend everything from Seq onward).
//
// For KindAck, Seq acknowledges stable receipt (the receiver has covered
// this prefix with a checkpoint), letting the sender trim its replay buffer.
type Envelope struct {
	Wire    WireID
	Kind    Kind
	Seq     uint64
	VT      vt.Time
	Promise vt.Time
	CallID  uint64
	Payload any

	// Origin is the external input this message causally descends from
	// (zero for control traffic and unknown provenance); Hops counts
	// handler boundaries crossed since that input entered the system (the
	// source emission itself is hop 0). Both are stamped deterministically,
	// so replayed and replicated envelopes carry identical provenance.
	Origin OriginID
	Hops   uint32

	// Trace is the head-sampling decision for the envelope's origin,
	// stamped at the source and inherited by every derived envelope:
	// TraceSampled marks a traced origin, TraceUnsampled an untraced one,
	// and zero means "undecided" — consumers fall back to the static
	// hash(origin) rule. Carrying the decision in the envelope lets every
	// hop and transport read the source's decision without sharing its
	// collector, so an origin's whole causal tree is traced or none of it.
	// Re-stamping sites (WAL re-injection, gap repair) recompute the
	// decision from the logged origin, so replayed envelopes carry the
	// identical decision.
	Trace int8
}

// Trace decisions carried by Envelope.Trace.
const (
	// TraceSampled marks the envelope's origin as head-sampled.
	TraceSampled int8 = 1
	// TraceUnsampled marks the envelope's origin as not sampled.
	TraceUnsampled int8 = -1
)

// NewData constructs a data envelope.
func NewData(w WireID, seq uint64, t vt.Time, payload any) Envelope {
	return Envelope{Wire: w, Kind: KindData, Seq: seq, VT: t, Payload: payload}
}

// NewSilence constructs a silence-promise envelope with no data-prefix
// attestation (Seq 0): the receiver applies it to its watermark
// unconditionally. Use NewSilenceAfter when the sender tracks per-wire
// sequence numbers — external harnesses and sources that deliver in-order
// by construction are the only callers that should use the bare form.
func NewSilence(w WireID, through vt.Time) Envelope {
	return Envelope{Wire: w, Kind: KindSilence, Promise: through}
}

// NewSilenceAfter constructs a silence promise that also attests to the
// sender's data stream: at the moment of the promise, the sender had
// emitted exactly seq data messages on the wire. A receiver lets such a
// promise advance its silence watermark only once it has contiguously
// received that prefix. Without the attestation, a promise regenerated
// during crash replay (or racing a partition heal) can overtake data that
// was lost in flight and will still be re-sent — advancing the watermark
// past it and committing the downstream merge in the wrong order.
func NewSilenceAfter(w WireID, through vt.Time, seq uint64) Envelope {
	return Envelope{Wire: w, Kind: KindSilence, Seq: seq, Promise: through}
}

// NewProbe constructs a curiosity probe asking the sender of wire w for a
// silence promise reaching target.
func NewProbe(w WireID, target vt.Time) Envelope {
	return Envelope{Wire: w, Kind: KindProbe, Promise: target}
}

// NewCallRequest constructs a two-way call request.
func NewCallRequest(w WireID, seq uint64, t vt.Time, callID uint64, payload any) Envelope {
	return Envelope{Wire: w, Kind: KindCallRequest, Seq: seq, VT: t, CallID: callID, Payload: payload}
}

// NewCallReply constructs the reply to a two-way call.
func NewCallReply(w WireID, seq uint64, t vt.Time, callID uint64, payload any) Envelope {
	return Envelope{Wire: w, Kind: KindCallReply, Seq: seq, VT: t, CallID: callID, Payload: payload}
}

// NewReplayRequest asks the sender of wire w to resend from sequence seq.
func NewReplayRequest(w WireID, fromSeq uint64) Envelope {
	return Envelope{Wire: w, Kind: KindReplayRequest, Seq: fromSeq}
}

// NewAck acknowledges stable receipt of wire w through sequence seq.
func NewAck(w WireID, throughSeq uint64) Envelope {
	return Envelope{Wire: w, Kind: KindAck, Seq: throughSeq}
}

// IsMessage reports whether the envelope occupies a tick in the receiver's
// logical queue (data, call request, or call reply), as opposed to control
// traffic (silence, probes, recovery protocol).
func (e Envelope) IsMessage() bool {
	return e.Kind == KindData || e.Kind == KindCallRequest || e.Kind == KindCallReply
}

// String renders the envelope for debugging and traces.
func (e Envelope) String() string {
	switch e.Kind {
	case KindData:
		return fmt.Sprintf("%s data seq=%d %s", e.Wire, e.Seq, e.VT)
	case KindSilence:
		return fmt.Sprintf("%s silence through %s", e.Wire, e.Promise)
	case KindProbe:
		return fmt.Sprintf("%s probe target %s", e.Wire, e.Promise)
	case KindCallRequest:
		return fmt.Sprintf("%s call id=%d seq=%d %s", e.Wire, e.CallID, e.Seq, e.VT)
	case KindCallReply:
		return fmt.Sprintf("%s reply id=%d seq=%d %s", e.Wire, e.CallID, e.Seq, e.VT)
	case KindReplayRequest:
		return fmt.Sprintf("%s replay from seq=%d", e.Wire, e.Seq)
	case KindAck:
		return fmt.Sprintf("%s ack through seq=%d", e.Wire, e.Seq)
	default:
		return fmt.Sprintf("%s %s", e.Wire, e.Kind)
	}
}
