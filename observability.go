package tart

import (
	"fmt"
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

// AdaptDecision is one closed-loop adaptive-runtime decision (see
// WithAdaptiveRuntime): a silence-strategy switch or a span-sampling
// modulus switch, stamped with the VT epoch boundary it takes effect at.
type AdaptDecision = adapt.Decision

// AdaptStatus is the adaptive runtime's live snapshot: per-wire silence
// strategies and the recent decision ring (served at /adapt and by
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
	// MinBlame is the windowed pessimism blame below which no silence
	// escalation happens (default 10ms).
	MinBlame time.Duration
	// QuietWindows is how many blame-free polls an escalated component
	// needs before stepping back down (default 8).
	QuietWindows int
	// MaxStrategy caps escalation (default HyperAggressive). Cap at
	// Aggressive to keep output virtual times bias-free — required when
	// byte-identical replay of outputs matters more than won-back latency.
	MaxStrategy SilenceStrategy
}

func (a AdaptiveRuntime) withDefaults() AdaptiveRuntime {
	if a.PollEvery <= 0 {
		a.PollEvery = 250 * time.Millisecond
	}
	return a
}

func (a AdaptiveRuntime) controllerConfig() adapt.Config {
	return adapt.Config{
		Quantum:         vt.Ticks(a.Quantum),
		MinBlameSeconds: a.MinBlame.Seconds(),
		QuietWindows:    a.QuietWindows,
		MaxStrategy:     a.MaxStrategy,
		SpansPerSec:     a.SpansPerSec,
	}
}

// WithAdaptiveRuntime closes the observability loop: a per-cluster
// controller harvests pessimism-blame attribution, the SLO burn rate and
// the delivery rate, and turns them into two control actions — per-wire
// silence strategy selection (the dominant blamed wire's upstream
// escalates lazy→aggressive→bias, and steps back when quiet) and the
// span-sampling modulus (kept under the SpansPerSec budget, and no denser
// than 1/64 while the SLO error budget burns, which also makes escalation
// more eager). Estimator coefficients stay with WithCalibration's
// scheduler-side regression.
//
// Determinism is preserved by construction: every action takes effect only
// at a VT-quantized, strictly-future epoch boundary and is recorded as a
// logged determinism fault (silence) or an append-only rate epoch
// (sampling), so replay, the passive replica, and time-travel rewind
// re-derive identical behaviour from the log without re-running the
// control loop. Each origin's sampling decision also travels inside its
// envelopes, so a mid-journey rate change never half-traces an origin.
// Decisions surface as adapt-decision flight events (with
// WithFlightRecorder), the /adapt debug endpoint, `tartctl adapt`, and the
// tart_adapt_* and tart_span_sample_* metric families. Implies span
// tracing.
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

// seedAdaptMetrics gives the adaptive runtime's per-wire gauges a series at
// launch, so dashboards and exposition audits see the family before (and
// whether or not) the first decision fires.
func (c *Cluster) seedAdaptMetrics() {
	for wire, up := range c.wireUp {
		// Before the controller's first escalation the effective strategy is
		// the upstream governor's own configuration.
		if cfg, err := c.SilenceConfigOf(up); err == nil {
			c.ctl.strategy(wire).Set(int64(cfg.Strategy))
		}
	}
}

// adaptStep is the adaptive runtime's tick: harvest an observation, step
// the policy, route the decisions, publish the gauges. The whole tick holds
// adaptMu, so a reader that takes it after seeing the VT frontier pass X
// finds every decision taken on a frontier below X already routed.
func (c *Cluster) adaptStep() {
	c.adaptMu.Lock()
	defer c.adaptMu.Unlock()
	obs := adapt.Observation{
		Now:       c.maxNowVT(),
		Wall:      time.Now(),
		Delivered: c.totalDelivered(),
		Blame:     make(map[string]adapt.WireBlame),
		SampleN:   c.schedule.Current().N,
	}
	slots := c.liveSlots()
	for _, s := range slots {
		// Blame: cumulative per-wire blamed pessimism seconds (histogram
		// sums); the controller windows successive readings itself.
		for _, fam := range s.eng.Metrics().Registry().Gather() {
			if fam.Name != trace.MetricBlameSeconds {
				continue
			}
			for _, series := range fam.Series {
				wire := series.Get("wire")
				up, ok := c.wireUp[wire]
				if !ok || series.Hist == nil {
					continue
				}
				wb := obs.Blame[wire]
				wb.Upstream = up
				wb.Seconds += series.Hist.Sum
				obs.Blame[wire] = wb
			}
		}
	}
	if tracker := c.cfg.slo; tracker != nil {
		for _, row := range tracker.Report().Rows {
			if row.BurnRate > obs.BurnRate {
				obs.BurnRate = row.BurnRate
			}
		}
	}

	for _, d := range c.adaptCtl.Step(obs) {
		if !c.applyAdaptDecision(d, slots) {
			c.adaptCtl.Reject(d)
		}
	}
	// The strategy each inter-component wire's upstream runs (value =
	// strategy enum), read after routing so a rejected switch never shows.
	for wire, up := range c.wireUp {
		if cfg, ok := c.adaptCtl.StrategyOf(up); ok {
			c.ctl.strategy(wire).Set(int64(cfg.Strategy))
		}
	}
}

// applyAdaptDecision routes one controller decision to the engines and
// reports whether they committed it. A committed decision is counted and
// recorded as one adapt-decision flight event on the hosting engine (on
// every engine for a cluster-wide sampling switch). One that is not — its
// engine is down, or the log refused the fault — is left for the caller to
// hand back to the controller.
func (c *Cluster) applyAdaptDecision(d AdaptDecision, slots []slotView) bool {
	ev := trace.Event{Kind: trace.EvAdaptDecision, VT: d.EffectiveVT, Component: d.Component, Wire: -1,
		Note: fmt.Sprintf("%s: %s", d.Kind, d.Cause)}
	switch d.Kind {
	case adapt.KindSampling:
		if !c.schedule.Propose(d.SampleN, d.EffectiveVT) {
			return false
		}
		c.ctl.sampleN.Set(int64(d.SampleN))
		c.ctl.sampleEpochs.Inc()
		for _, s := range slots {
			s.slot.rec.Record(ev)
		}
	case adapt.KindSilence:
		v, err := c.componentEngine(d.Component)
		if err != nil {
			return false
		}
		if err := v.eng.CommitSilenceFault(d.Component, d.Silence, d.EffectiveVT); err != nil {
			return false
		}
		v.eng.Metrics().Registry().DeterminismFaults(d.Component, "adapt-silence").Inc()
		v.slot.rec.Record(ev)
	}
	c.ctl.decisions(d.Kind).Inc()
	return true
}

// AdaptStatus snapshots the adaptive runtime: per-wire strategies and the
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
		total += s.eng.Metrics().Snapshot().Delivered
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
	now := eng.NowVT()
	for _, comp := range eng.Hosted() {
		now = max(now, eng.ComponentVT(comp))
	}
	return now
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
