package tart

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/engine"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/trace/span/otlp"
	"repro/internal/vt"
)

// SLOTracker aggregates latency observations per named series into
// HDR-style log-bucketed histograms and evaluates declarative objectives
// live; see NewSLOTracker and WithSLO.
type SLOTracker = slo.Tracker

// SLOObjective is one declarative latency objective ("p99 < 50ms").
type SLOObjective = slo.Objective

// SLOBudgetPolicy is a windowed error-budget policy evaluated alongside
// the latency objectives.
type SLOBudgetPolicy = slo.BudgetPolicy

// NewSLOTracker creates a tracker evaluating the given objectives against
// every observed series; budget may be nil.
func NewSLOTracker(objectives []SLOObjective, budget *SLOBudgetPolicy) *SLOTracker {
	return slo.NewTracker(objectives, budget)
}

// WithSLO attaches a live SLO tracker to the cluster's debug surfaces:
// every engine's /metrics exposition gains the tart_slo_* families and the
// /slo endpoint serves the tracker's current report as JSON. The tracker
// itself is fed by the harness (observe end-to-end latencies at the sink);
// the cluster only publishes it.
func WithSLO(t *SLOTracker) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.slo = t })
}

// OTLPStats counts an OTLP exporter's activity (see Cluster.OTLPStats).
type OTLPStats = otlp.Stats

// WithOTLPExport ships every engine's span trees to an OpenTelemetry
// collector at url (OTLP/HTTP JSON, e.g. "http://localhost:4318/v1/traces"),
// batched and gzipped. Implies span tracing. Origin IDs become 128-bit
// trace IDs deterministically, so the same external input maps to the same
// trace across the original run, a replay, and the recovered replica.
// Export is fail-open: a slow or dead collector drops spans (counted in
// OTLPStats) and can never block the scheduler or transport hot paths.
func WithOTLPExport(url string) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		c.otlpURL = url
		c.spansOn = true
	})
}

// AdaptDecision is one adaptive-runtime decision (see WithAdaptiveRuntime):
// a span-sampling modulus switch, stamped with the VT epoch boundary it
// takes effect at.
type AdaptDecision = adapt.Decision

// AdaptStatus is the adaptive runtime's live snapshot: whether SLO burn
// degrades sampling, and the recent decision ring (served at /adapt and by
// `tartctl adapt`).
type AdaptStatus = adapt.Status

// AdaptiveRuntime tunes WithAdaptiveRuntime. Zero values pick defaults.
type AdaptiveRuntime struct {
	// PollEvery is the control loop's harvest cadence (default 250ms).
	PollEvery time.Duration
	// Quantum is the VT grain decision epoch boundaries are aligned to
	// (default 250ms of virtual time).
	Quantum Ticks
	// SpansPerSec is the span budget: the sampling modulus N follows the
	// cluster's delivery rate so that deliveries/s / N stays under it,
	// rounded up to a power of two. 0 keeps WithSpanTracing's modulus.
	SpansPerSec float64
}

func (a AdaptiveRuntime) withDefaults() AdaptiveRuntime {
	if a.PollEvery <= 0 {
		a.PollEvery = 250 * time.Millisecond
	}
	return a
}

func (a AdaptiveRuntime) controllerConfig() adapt.Config {
	return adapt.Config{Quantum: vt.Ticks(a.Quantum), SpansPerSec: a.SpansPerSec}
}

// WithAdaptiveRuntime closes the observability loop on span sampling: a
// per-cluster controller harvests the delivery rate and the SLO burn rate
// and sets the span-sampling modulus — kept under the SpansPerSec budget,
// and no denser than 1/64 while the SLO error budget burns. Silence
// strategies stay with WithSilence and SetSilenceStrategy, estimator
// coefficients with WithCalibration's scheduler-side regression.
//
// Determinism is preserved by construction: every modulus takes effect only
// at a VT-quantized, strictly-future epoch boundary recorded as an
// append-only rate epoch, so replay, the passive replica, and time-travel
// rewind re-derive identical sampling without re-running the control loop.
// Each origin's sampling decision also travels inside its envelopes, so a
// mid-journey rate change never half-traces an origin. Decisions surface as
// adapt-decision flight events (with WithFlightRecorder), the /adapt debug
// endpoint, `tartctl adapt`, and the tart_span_sample_* metric families.
// Implies span tracing.
func WithAdaptiveRuntime(cfg AdaptiveRuntime) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		a := cfg.withDefaults()
		c.adaptRuntime = &a
		c.spansOn = true
	})
}

// SampleRateEpoch is one adaptive-sampling rate interval: origins emitted
// at or after Start are head-sampled 1-in-N (until the next epoch).
type SampleRateEpoch = span.RateEpoch

// SampleEpochs returns the adaptive-sampling epoch history (nil without
// WithAdaptiveRuntime).
func (c *Cluster) SampleEpochs() []SampleRateEpoch {
	if c.schedule == nil {
		return nil
	}
	return c.schedule.Epochs()
}

// OTLPStats reports the OTLP exporter's counters (zero without
// WithOTLPExport).
func (c *Cluster) OTLPStats() OTLPStats { return c.otlp.Stats() }

// adaptStep is the adaptive runtime's tick: harvest an observation, step
// the policy, route its decision. The whole tick holds adaptMu, so a reader
// that takes it after seeing the VT frontier pass X finds every decision
// taken on a frontier below X already routed.
func (c *Cluster) adaptStep() {
	c.adaptMu.Lock()
	defer c.adaptMu.Unlock()
	obs := adapt.Observation{
		Now:       c.maxNowVT(),
		Wall:      time.Now(),
		Delivered: c.totalDelivered(),
		SampleN:   c.schedule.Current().N,
	}
	if tracker := c.cfg.slo; tracker != nil {
		for _, row := range tracker.Report().Rows {
			if row.BurnRate > obs.BurnRate {
				obs.BurnRate = row.BurnRate
			}
		}
	}
	c.adaptCtl.Step(obs, c.applyAdaptDecision)
}

// applyAdaptDecision appends one controller decision to the sampling
// schedule and reports whether the schedule took it. A committed decision
// is counted and recorded as an adapt-decision flight event on every live
// engine.
func (c *Cluster) applyAdaptDecision(d AdaptDecision) bool {
	if !c.schedule.Propose(d.SampleN, d.EffectiveVT) {
		return false
	}
	c.ctl.sampleEpochs.Inc()
	ev := trace.Event{Kind: trace.EvAdaptDecision, VT: d.EffectiveVT, Wire: -1, Note: "sampling: " + d.Cause}
	for _, s := range c.liveSlots() {
		s.slot.rec.Record(ev)
	}
	return true
}

// AdaptStatus snapshots the adaptive runtime: SLO-burn degradation and the
// recent decision ring. Zero without WithAdaptiveRuntime.
func (c *Cluster) AdaptStatus() AdaptStatus {
	if c.adaptCtl == nil {
		return AdaptStatus{}
	}
	c.adaptMu.Lock()
	defer c.adaptMu.Unlock()
	return c.adaptCtl.Status()
}

// totalDelivered sums delivered-message counts across all engines. Each
// count covers only the engine's current incarnation (Launch, Recover and
// Reopen each start a fresh registry), so the total drops when a slot is
// recovered.
func (c *Cluster) totalDelivered() int64 {
	var total int64
	for _, s := range c.slots() {
		total += s.metrics.Snapshot().Delivered
	}
	return total
}

// maxNowVT returns the most advanced virtual-time frontier any engine
// incarnation has reached — the point new epoch boundaries must be
// scheduled beyond. A recovered engine replays from its checkpoint, and a
// boundary inside the range it re-executes would change outputs its
// predecessor already emitted, so failed and earlier incarnations count.
func (c *Cluster) maxNowVT() vt.Time {
	now := vt.Zero
	for _, s := range c.slots() {
		now = max(now, s.reached, frontierOf(s.eng))
	}
	return now
}

// frontierOf is an engine's virtual-time frontier. Component scheduler
// clocks are included because manual-clock deployments keep the engine
// clock pinned while schedulers advance with processed messages.
func frontierOf(eng *engine.Engine) vt.Time {
	return max(eng.NowVT(), eng.MaxComponentClock())
}

// drainOTLP hands the exporter every span past each collector's watermark:
// span IDs increase per collector, so each span is exported exactly once
// (modulo ring overwrite under extreme backlog, which loses oldest-first —
// matching the collector's own retention).
func (c *Cluster) drainOTLP() {
	for _, s := range c.slots() {
		for _, sp := range s.slot.spans.Spans() {
			if sp.ID > s.slot.exported {
				c.otlp.Enqueue(sp)
				s.slot.exported = sp.ID
			}
		}
	}
}
