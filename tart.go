// Package tart is a Go implementation of TART (Time-Aware Run-Time), the
// deterministic component-oriented middleware of Strom, Dorai, Feng and
// Zheng, "Deterministic Replay for Transparent Recovery in
// Component-Oriented Middleware" (ICDCS 2009).
//
// Applications are networks of stateful components exchanging one-way
// messages (Send) and two-way calls (Call). TART transparently augments
// every message with a virtual time computed by deterministic estimator
// functions and schedules message handling in virtual-time order. The
// resulting execution is repeatably deterministic, so component state can
// be recovered after fail-stop failures with lightweight checkpoint-replay:
// only external inputs are logged, checkpoints are shipped asynchronously
// to passive replicas, and a recovered component replays its input suffix
// to reach the identical state — the only externally visible artifact is
// possible output stutter (re-delivered outputs), which DedupOutputs removes.
//
// Quick start:
//
//	app := tart.NewApp()
//	app.Register("counter", &Counter{Counts: map[string]int{}},
//	    tart.WithConstantCost(50*time.Microsecond))
//	app.SourceInto("in", "counter", "sentences")
//	app.SinkFrom("out", "counter", "totals")
//	app.PlaceAll("main")
//
//	cluster, err := tart.Launch(app)
//	// handle err, defer cluster.Stop()
//	src, _ := cluster.Source("in")
//	cluster.Sink("out", func(o tart.Output) { fmt.Println(o.Payload) })
//	src.Emit([]string{"hello", "world"})
//
// See the examples directory for failover, pipelines with two-way calls,
// and multi-engine deployments over TCP.
package tart

import (
	"io"

	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/silence"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/transport"
	"repro/internal/vt"
	"repro/internal/wal"
)

// VirtualTime is a virtual-time instant in ticks (1 tick = 1 ns).
type VirtualTime = vt.Time

// Ticks is a span of virtual time.
type Ticks = vt.Ticks

// Context is the deterministic execution context handed to a component for
// each message: virtual time (Now), deterministic randomness (Rand), and
// the output operations (Send, Call).
type Context = sched.Ctx

// Component is application logic: OnMessage processes one input message
// arriving on the named port. For call requests, the returned value is
// sent back to the caller as the reply. Handlers must be deterministic
// functions of (state, port, payload, ctx.Now(), ctx.Rand()) and must not
// share memory with other components.
type Component interface {
	OnMessage(ctx *Context, port string, payload any) (reply any, err error)
}

// ComponentFunc adapts a stateless function to the Component interface.
type ComponentFunc func(ctx *Context, port string, payload any) (any, error)

// OnMessage implements Component.
func (f ComponentFunc) OnMessage(ctx *Context, port string, payload any) (any, error) {
	return f(ctx, port, payload)
}

// Estimator predicts a handler's compute cost in virtual ticks; see the
// estimator options on Register.
type Estimator = estimator.Estimator

// Features is a deterministic per-message feature vector (the paper's
// basic-block execution counts).
type Features = estimator.Features

// FeatureFunc extracts Features from a payload; it must be deterministic.
type FeatureFunc = estimator.FeatureFunc

// SilenceStrategy selects how eagerly silence is propagated (§II.G.3).
type SilenceStrategy = silence.Strategy

// Silence-propagation strategies, in increasing eagerness.
const (
	// Lazy communicates silence only implicitly through later data
	// messages.
	Lazy = silence.Lazy
	// Curiosity has blocked receivers probe the lagging senders (default).
	Curiosity = silence.Curiosity
	// Aggressive pushes unprompted promises as the sender's clock advances.
	Aggressive = silence.Aggressive
	// HyperAggressive is the bias algorithm: promises beyond current
	// knowledge that also floor the sender's future output times.
	HyperAggressive = silence.HyperAggressive
)

// SilenceConfig is a silence governor's full configuration: strategy,
// push stride, and (hyper-aggressive only) promise bias.
type SilenceConfig = silence.Config

// Output is one message delivered to an external sink.
type Output struct {
	// Seq is the 1-based output sequence number on the sink's wire;
	// after a failover the stream may repeat sequence numbers (stutter).
	Seq uint64
	// VT is the deterministic virtual time of the output.
	VT VirtualTime
	// Payload is the application payload.
	Payload any
}

// Metrics is a snapshot of an engine's runtime counters, folded from its
// labeled metric registry: each field sums one family over every label set,
// for the current engine incarnation only (Recover and Reopen start from
// zero).
//
//   - Delivered: tart_delivered_total
//   - OutOfOrder: tart_out_of_rt_order_total
//   - ProbesSent: tart_probes_total
//   - SilencesSent: tart_silences_total
//   - PessimismDelay, PessimismEpisodes: the sum and the count of the
//     tart_pessimism_delay_seconds histogram
//   - Checkpoints: tart_checkpoints_total
//   - CheckpointBytes: the sum of tart_checkpoint_bytes
//   - ReplayRequests: tart_replay_serves_total (replay ranges served)
//   - DuplicatesDropped: tart_duplicates_dropped_total plus
//     tart_holdback_dropped_total
//   - DeterminismFaults: tart_determinism_faults_total, every cause
//   - Failovers: tart_failovers_total
type Metrics = trace.Snapshot

// TraceEvent is one flight-recorder record: an event kind plus virtual and
// real timestamps, component, wire, and per-wire sequence number. Obtain
// them with Cluster.TraceEvents (after WithFlightRecorder) or an engine's
// /trace debug endpoint.
type TraceEvent = trace.Event

// OriginID identifies the external input a message causally descends from:
// the source wire it entered on plus its logged sequence number. Origins
// are deterministic, so the same input carries the same OriginID across
// the original run, replay, and the passive replica.
type OriginID = msg.OriginID

// NewOrigin packs a source wire ID and input sequence number into an
// OriginID (see Cluster.TraceEvents / TraceEvent.Origin).
func NewOrigin(wire int32, seq uint64) OriginID { return msg.NewOrigin(msg.WireID(wire), seq) }

// ParseOrigin parses the "w<wire>#<seq>" rendering of an OriginID.
func ParseOrigin(s string) (OriginID, error) { return msg.ParseOrigin(s) }

// CausalChain filters flight-recorder events down to those caused by one
// external input and orders them causally (VT, then hop count): the story
// of that input's journey through the pipeline.
func CausalChain(events []TraceEvent, origin OriginID) []TraceEvent {
	return trace.CausalChain(events, origin)
}

// Span is one timed segment of a traced message's journey (queueing,
// pessimism wait, handler compute, transport linger), with wall-clock and
// virtual-time bounds. Obtain spans with Cluster.Spans (after
// WithSpanTracing) or an engine's /spans debug endpoint.
type Span = span.Span

// SpanPhase classifies what a traced message was doing during a span.
type SpanPhase = span.Phase

// Span phases (Span.Phase / CriticalPathBreakdown keys).
const (
	PhaseQueueing  = span.PhaseQueueing
	PhasePessimism = span.PhasePessimism
	PhaseCompute   = span.PhaseCompute
	PhaseTransport = span.PhaseTransport
	PhaseLinger    = span.PhaseLinger
	PhaseReplay    = span.PhaseReplay
)

// CriticalPathBreakdown attributes one traced origin's end-to-end latency
// across phases; the per-phase durations sum to Total exactly.
type CriticalPathBreakdown = span.Breakdown

// CriticalPath computes the critical-path attribution of one origin from
// its spans (typically the concatenation of every engine's Cluster.Spans).
func CriticalPath(spans []Span, origin OriginID) CriticalPathBreakdown {
	return span.CriticalPath(spans, origin)
}

// CriticalPathTable computes per-origin breakdowns for every origin in the
// span set, ordered by origin.
func CriticalPathTable(spans []Span) []CriticalPathBreakdown {
	return span.Breakdowns(spans)
}

// WriteChromeTrace renders spans as Chrome trace_event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	return span.WriteChromeTrace(w, spans)
}

// TraceEventKind discriminates flight-recorder events.
type TraceEventKind = trace.EventKind

// Flight-recorder event kinds (TraceEvent.Kind).
const (
	EvDeliver            = trace.EvDeliver
	EvSend               = trace.EvSend
	EvSilence            = trace.EvSilence
	EvProbe              = trace.EvProbe
	EvPessimismStart     = trace.EvPessimismStart
	EvPessimismEnd       = trace.EvPessimismEnd
	EvCuriosityStanding  = trace.EvCuriosityStanding
	EvCuriositySatisfied = trace.EvCuriositySatisfied
	EvCheckpoint         = trace.EvCheckpoint
	EvReplayRequest      = trace.EvReplayRequest
	EvReplayServe        = trace.EvReplayServe
	EvDuplicateDrop      = trace.EvDuplicateDrop
	EvDeterminismFault   = trace.EvDeterminismFault
	EvFailover           = trace.EvFailover
	EvSourceEmit         = trace.EvSourceEmit
	EvPeerUp             = trace.EvPeerUp
	EvPeerDown           = trace.EvPeerDown
	EvSampleEpoch        = trace.EvSampleEpoch
	EvAdaptDecision      = trace.EvAdaptDecision
)

// MetricFamily is one gathered labeled metric with all of its series; see
// Cluster.MetricFamilies.
type MetricFamily = trace.MetricFamily

// MetricSeries is one labeled time series inside a MetricFamily.
type MetricSeries = trace.Series

// MetricLabel is one key=value metric dimension.
type MetricLabel = trace.Label

// LatencyRecorder accumulates end-to-end latency observations for
// experiment harnesses and exposes quantile summaries.
type LatencyRecorder = trace.LatencyRecorder

// LatencySummary condenses a latency sample: count, mean, p50/p95/p99, max.
type LatencySummary = trace.LatencySummary

// RegisterPayload registers a payload type with the wire/checkpoint codec.
// Required for payload types that cross engine boundaries or appear in
// checkpoints shipped between processes.
func RegisterPayload(v any) error { return msg.RegisterPayload(v) }

// PayloadCodec describes a zero-alloc binary encoding for one payload
// type; see RegisterBinaryPayload. Append and Decode must be
// deterministic (identical values → identical bytes; the determinism
// audit digests them) and Decode must not retain its input slice.
type PayloadCodec = msg.PayloadCodec

// FirstUserPayloadID is the smallest payload type ID applications may use
// with RegisterBinaryPayload; smaller IDs are reserved for built-ins.
const FirstUserPayloadID = msg.FirstUserPayloadID

// RegisterBinaryPayload registers a binary codec for one payload type
// under a stable numeric ID, buying it out of the reflective gob fallback:
// envelopes carrying it encode and decode with zero heap allocations on
// the wire hot path. The ID is recorded in logs and frames — never
// renumber it once deployed. Types without a binary codec keep working
// through the self-describing gob fallback (RegisterPayload), at gob
// prices, visible in the tart_codec_fallbacks_total counter.
func RegisterBinaryPayload(pc PayloadCodec) error { return msg.RegisterBinaryPayload(pc) }

// FaultPlan describes probabilistic per-link faults (drop, duplicate,
// reorder, delay) applied by a NetworkChaos emulator; see
// NetworkChaos.SetLinkPlan.
type FaultPlan = transport.FaultPlan

// NetworkChaos is a deterministic link-fault emulator threaded into every
// inter-engine connection via WithNetworkChaos: per-link fault plans,
// partitions (Cut/Heal), and fault statistics. Fault decisions are seeded
// per connection, so the same seed yields the same fault schedule.
type NetworkChaos = transport.Netem

// NewNetworkChaos creates a link-fault emulator; pass it to
// WithNetworkChaos at Launch and keep the handle to cut and heal links at
// runtime.
func NewNetworkChaos(seed uint64) *NetworkChaos { return transport.NewNetem(seed) }

// NetworkChaosStats counts the fault decisions a NetworkChaos has made.
type NetworkChaosStats = transport.NetemStats

// WALFaultInjector arms transient stable-log append failures per engine;
// see WithWALFaults. Armed appends fail with ErrWALFault before writing
// anything, and sources do not advance their sequence on a failed append,
// so emitters retry safely.
type WALFaultInjector = wal.Injector

// NewWALFaultInjector creates a disk-fault injector for WithWALFaults.
func NewWALFaultInjector() *WALFaultInjector { return wal.NewInjector() }

// ErrWALFault reports a stable-log append rejected by an armed
// WALFaultInjector fault (errors.Is-matchable through Source.Emit/EmitAt).
var ErrWALFault = wal.ErrInjected

// ErrWALNoSpace reports a stable-log append rejected by an armed ENOSPC
// fault (errors.Is-matchable as both ErrWALFault and syscall.ENOSPC).
var ErrWALNoSpace = wal.ErrNoSpace

// ErrSourceShed reports an external input refused because the hosting
// engine's buffered replay state hit the WithShedLimit bound — typically
// a downstream peer is unreachable and unacked envelopes cannot be
// trimmed. The input never entered the system (not logged, not
// delivered), so the producer may retry the same virtual time later;
// determinism of everything already ingested is unaffected.
var ErrSourceShed = engine.ErrShed
