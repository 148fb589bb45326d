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
// The README's API table lists every export with its methods: App
// assembles the application, Launch and Reopen start a Cluster, Source and
// Sink carry external I/O, and the Cluster's reads (MetricFamilies,
// TraceEvents, Spans, RewindRun, Bisect) are the one
// programmatic read of each signal the debug listener also serves.
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
	"repro/internal/vt"
)

// VirtualTime is a virtual-time instant in ticks (1 tick = 1 ns).
type VirtualTime = vt.Time

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
	// HyperAggressive runs the paper's bias algorithm (§II.G.1): it pushes
	// promises as Aggressive does, each 2 ms past what the sender knows,
	// and floors its own later outputs past them. The bias moves output
	// virtual times, so it is chosen at launch with WithSilence;
	// SetSilenceStrategy refuses to switch into or out of it.
	HyperAggressive = silence.HyperAggressive
)

// SilenceConfig is a silence governor's full configuration: strategy and
// push stride.
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

// Metrics is a snapshot of an engine's runtime counts, pulled from the
// engine and its schedulers, which keep them whether or not any push
// consumer is attached, for the current engine incarnation only (Recover
// and Reopen start from zero). A field sums one family over every label
// set:
//
//   - Delivered: tart_delivered_total
//   - OutOfOrder: tart_out_of_rt_order_total
//   - ProbesSent: tart_probes_total
//   - SilencesSent: tart_silences_total
//   - PessimismDelay, PessimismEpisodes: the wait and the number of
//     pessimism episodes (what tart_pessimism_delay_seconds sums and counts
//     when a push consumer is attached)
//   - Checkpoints: tart_checkpoints_total
//   - CheckpointBytes: handler-state bytes over those checkpoints
//   - ReplayRequests: tart_replay_serves_total (replay ranges served)
//   - DuplicatesDropped: tart_duplicates_dropped_total plus
//     tart_holdback_dropped_total
//   - DeterminismFaults: tart_determinism_faults_total, every cause
//   - Failovers: tart_failovers_total
type Metrics = engine.Totals

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

// ParseOrigin parses the "w<wire>#<seq>" rendering of an OriginID.
func ParseOrigin(s string) (OriginID, error) { return msg.ParseOrigin(s) }

// CausalChain filters flight-recorder events down to those caused by one
// external input and orders them causally (VT, then hop count): the story
// of that input's journey through the pipeline.
func CausalChain(events []TraceEvent, origin OriginID) []TraceEvent {
	return trace.CausalChain(events, origin)
}

// Span is one timed segment of a traced message's journey (queueing,
// pessimism wait, handler compute, transport), with wall-clock and
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
	PhaseLinger    = span.PhaseLinger // no producer since the TCP writer stopped lingering
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
)

// MetricFamily is one gathered labeled metric with all of its series; see
// Cluster.MetricFamilies.
type MetricFamily = trace.MetricFamily

// RegisterPayload registers a payload type with the wire/checkpoint codec.
// Required for payload types that cross engine boundaries or appear in
// checkpoints that are encoded: shipped between processes, written by
// WithDurableStore, or archived by WithTimeTravel.
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

// ErrSourceShed reports an external input refused because the hosting
// engine's buffered replay state hit the WithShedLimit bound — typically
// a downstream peer is unreachable and unacked envelopes cannot be
// trimmed. The input never entered the system (not logged, not
// delivered), so the producer may retry the same virtual time later;
// determinism of everything already ingested is unaffected.
var ErrSourceShed = engine.ErrShed
