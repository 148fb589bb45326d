// Package span is the sampled, cross-engine span layer: it stitches one
// external input's full journey (enqueue → holdback/pessimism wait → merge
// pick → handler compute → transport linger → downstream repeat) into a
// span set keyed by the input's OriginID, with both wall-clock and
// virtual-time bounds on every span.
//
// Spans exist to answer the question the aggregate metrics cannot: where
// did *this* message's end-to-end latency actually go? The paper's central
// cost claim (§III) is that deterministic merge adds a small, knob-dependent
// pessimism delay on top of real compute and transmission time; the span
// layer makes that claim inspectable per message. Because OriginIDs and
// virtual times are deterministic, the same input carries the same span
// identity across the original run, a replay, and the recovered replica —
// the replayable timestamps double as the observability substrate.
//
// Sampling is deterministic head-sampling: an origin is traced iff
// hash(OriginID) mod N == 0 (default 1/64). Every engine, the replica, and
// a replay therefore agree on which origins are traced without any
// coordination, and a traced origin is traced end to end across engines.
package span

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

// Phase classifies what a message was doing during a span. The analyzer
// (CriticalPath) attributes every instant of a traced message's end-to-end
// latency to exactly one phase.
type Phase uint8

const (
	// PhaseQueueing: the message sat in a receiver's input queue (or
	// holdback area) without the scheduler being pessimism-blocked on it.
	PhaseQueueing Phase = iota + 1
	// PhasePessimism: the message was the earliest deliverable candidate
	// but the scheduler held it awaiting other senders' silence — the
	// paper's intrinsic deterministic-merge overhead (§II.E).
	PhasePessimism
	// PhaseCompute: the handler was running.
	PhaseCompute
	// PhaseTransport: the message was in flight between engines (derived
	// by the analyzer from the gap preceding a queueing span; there is no
	// single-host observer for wire flight).
	PhaseTransport
	// PhaseLinger: the encoded envelope waited in a write-coalescing buffer
	// for a linger window to close. Nothing records it since the TCP
	// writer stopped lingering; readers of the phase table still name it.
	PhaseLinger
	// PhaseReplay: the span belongs to a post-failover re-delivery; the
	// analyzer attributes all of a replayed span's time here so a
	// recovery's latency cost is visible in the same timeline.
	PhaseReplay
)

var phaseNames = [...]string{
	PhaseQueueing:  "queueing",
	PhasePessimism: "pessimism",
	PhaseCompute:   "compute",
	PhaseTransport: "transport",
	PhaseLinger:    "linger",
	PhaseReplay:    "replay",
}

// Phases lists every phase in canonical render order.
func Phases() []Phase {
	return []Phase{PhaseQueueing, PhasePessimism, PhaseCompute, PhaseTransport, PhaseLinger, PhaseReplay}
}

// String renders the phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) && phaseNames[p] != "" {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// MarshalJSON renders the phase as its name.
func (p Phase) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON parses a phase name (for tools reading span dumps).
func (p *Phase) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range phaseNames {
		if name == s {
			*p = Phase(i)
			return nil
		}
	}
	return fmt.Errorf("span: unknown phase %q", s)
}

// Span is one timed segment of a traced message's journey. Start/End are
// wall-clock bounds; StartVT/EndVT the deterministic virtual-time bounds
// (for compute spans EndVT−StartVT is the estimator's charged cost, so
// comparing it with End−Start reads the estimator error off the timeline).
type Span struct {
	// ID is the collector-assigned sequence number (1-based over the
	// collector's lifetime), a stable tie-break for deterministic sorts.
	ID uint64 `json:"id"`
	// Origin is the external input this span's message causally descends
	// from; spans are keyed and queried by it.
	Origin msg.OriginID `json:"origin"`
	Phase  Phase        `json:"phase"`
	// Engine is the engine the span was observed on (stamped by the
	// collector); Component the component, empty for transport spans.
	Engine    string     `json:"engine,omitempty"`
	Component string     `json:"component,omitempty"`
	Wire      msg.WireID `json:"wire"`
	// Seq is the per-wire message sequence number; Hops the handler
	// boundaries crossed since the input entered.
	Seq     uint64    `json:"seq,omitempty"`
	Hops    uint32    `json:"hops,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	StartVT vt.Time   `json:"startVT"`
	EndVT   vt.Time   `json:"endVT"`
	// Replayed marks spans re-emitted by a post-failover re-delivery: the
	// message was already delivered by the crashed generation and this
	// span is recovery work, not first-run latency.
	Replayed bool   `json:"replayed,omitempty"`
	Note     string `json:"note,omitempty"`
}

// Duration returns the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// String renders the span compactly for logs and timelines.
func (s Span) String() string {
	out := fmt.Sprintf("%-9s %s", s.Phase, s.Duration().Round(time.Nanosecond))
	if s.Component != "" {
		out += " " + s.Component
	}
	if s.Engine != "" {
		out += "@" + s.Engine
	}
	if s.Wire >= 0 {
		out += " " + s.Wire.String()
	}
	if s.Seq != 0 {
		out += fmt.Sprintf(" seq=%d", s.Seq)
	}
	out += fmt.Sprintf(" vt=[%v,%v]", s.StartVT, s.EndVT)
	if s.Replayed {
		out += " replayed"
	}
	if s.Note != "" {
		out += " (" + s.Note + ")"
	}
	return out
}

// DefaultSampleN is the head-sampling rate when a collector is built with
// a non-positive rate: one traced origin in 64.
const DefaultSampleN = 64

// DefaultCollectorCapacity is the span ring size used when a non-positive
// capacity is requested.
const DefaultCollectorCapacity = 16384

// Collector accumulates spans in a fixed-size ring. It is safe for
// concurrent use, and — like the flight recorder — deliberately survives
// engine generations: the cluster keeps one collector per engine slot and
// hands it to every generation, so a post-failover dump shows the
// pre-crash journey and the replayed re-deliveries side by side.
//
// A nil *Collector is a valid disabled collector: Sampled reports false
// and Record is a no-op, so instrumented hot paths pay one nil check when
// span tracing is off.
type Collector struct {
	engine  string
	sampleN uint64

	mu    sync.Mutex
	buf   []Span
	next  uint64 // total spans recorded over the collector's lifetime
	start int    // index of the oldest span when the ring is full

	// observe, when set, is invoked for every recorded span with the
	// attributed phase name ("replay" for replayed spans) and the span's
	// duration in seconds — the hook the engine uses to feed
	// tart_critical_path_seconds{phase}.
	observe func(phase string, seconds float64)
}

// NewCollector creates a collector for one engine. capacity <= 0 selects
// DefaultCollectorCapacity; sampleN <= 0 selects DefaultSampleN, and
// sampleN == 1 traces every origin.
func NewCollector(engine string, capacity, sampleN int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCollectorCapacity
	}
	if sampleN <= 0 {
		sampleN = DefaultSampleN
	}
	return &Collector{engine: engine, sampleN: uint64(sampleN), buf: make([]Span, 0, capacity)}
}

// SetObserver installs the per-span observation hook (see Collector doc).
// Install before traffic flows; the field is read without synchronization.
func (c *Collector) SetObserver(fn func(phase string, seconds float64)) {
	if c != nil {
		c.observe = fn
	}
}

// Sampled reports whether the origin is head-sampled: hash(origin) mod N
// == 0. The hash is a fixed-constant mixer, so every engine, replica, and
// replay selects the identical origin set with no coordination. A zero
// origin (unknown provenance) is never sampled; a nil collector samples
// nothing.
func (c *Collector) Sampled(o msg.OriginID) bool {
	if c == nil || o == 0 {
		return false
	}
	if c.sampleN <= 1 {
		return true
	}
	return originHash(uint64(o))%c.sampleN == 0
}

// DecideAt computes an origin's head-sampling decision as an envelope
// mark: msg.TraceSampled or msg.TraceUnsampled. A nil collector or a zero
// origin yields zero ("undecided"), which consumers resolve with the
// static fallback. Sources call this once per external input and stamp the
// result into the envelope, so downstream hops and transports read the
// source's decision instead of re-deriving it; replay recomputes the
// identical mark from the logged origin.
func (c *Collector) DecideAt(o msg.OriginID) int8 {
	if c == nil || o == 0 {
		return 0
	}
	if c.Sampled(o) {
		return msg.TraceSampled
	}
	return msg.TraceUnsampled
}

// Decided resolves an envelope's carried trace mark against this
// collector: an explicit mark wins; an undecided (zero) mark falls back to
// the static Sampled rule so hand-built envelopes and pre-upgrade traffic
// keep their old behaviour. A nil collector samples nothing.
func (c *Collector) Decided(mark int8, o msg.OriginID) bool {
	if c == nil {
		return false
	}
	if mark != 0 {
		return mark > 0
	}
	return c.Sampled(o)
}

// OriginHash exposes the sampling hash (splitmix64 finalizer) so external
// consumers — the OTLP exporter derives 128-bit trace IDs from it — agree
// with the sampler's view of an origin's identity.
func OriginHash(o msg.OriginID) uint64 { return originHash(uint64(o)) }

// originHash mixes an OriginID's bits (splitmix64 finalizer) so the modulo
// samples uniformly even though sequence numbers are dense in the low bits.
func originHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Record appends one span, stamping its collector ID and engine name.
// Recording on a nil collector is a no-op.
func (c *Collector) Record(s Span) {
	if c == nil {
		return
	}
	if s.Engine == "" {
		s.Engine = c.engine
	}
	// Strip monotonic readings so every span does wall-clock arithmetic:
	// some producers reconstruct timestamps from stored nanos (no monotonic
	// part), and mixing the two clock bases makes durations disagree by a
	// few nanoseconds — enough to break the analyzer's exact tiling.
	s.Start = s.Start.Round(0)
	s.End = s.End.Round(0)
	c.mu.Lock()
	c.next++
	s.ID = c.next
	if len(c.buf) < cap(c.buf) {
		c.buf = append(c.buf, s)
	} else {
		c.buf[c.start] = s
		c.start++
		if c.start == len(c.buf) {
			c.start = 0
		}
	}
	obs := c.observe
	c.mu.Unlock()
	if obs != nil {
		phase := s.Phase
		if s.Replayed {
			phase = PhaseReplay
		}
		obs(phase.String(), s.End.Sub(s.Start).Seconds())
	}
}

// Spans returns a copy of the retained spans in record order.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, 0, len(c.buf))
	out = append(out, c.buf[c.start:]...)
	out = append(out, c.buf[:c.start]...)
	return out
}
