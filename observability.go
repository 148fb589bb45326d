package tart

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/adapt"
	"repro/internal/estimator"
	"repro/internal/silence"
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

// SLOReport is a full tracker evaluation: per-series quantiles, verdicts,
// and budget burn.
type SLOReport = slo.Report

// SLORow is the live evaluation of one series inside an SLOReport.
type SLORow = slo.Row

// LatencyHistogram is a point-in-time HDR histogram snapshot (per-series,
// via SLOTracker.SnapshotOf).
type LatencyHistogram = slo.Snapshot

// ParseSLOObjectives parses a comma-separated objective list such as
// "p99<50ms,p999<250ms".
func ParseSLOObjectives(spec string) ([]SLOObjective, error) { return slo.ParseObjectives(spec) }

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

// maxSampleN caps the adaptive sampling modulus: even the busiest
// cluster keeps tracing one origin in about a million.
const maxSampleN = 1 << 20

// AdaptiveSampling tunes WithAdaptiveSpanSampling. Zero values pick
// defaults.
type AdaptiveSampling struct {
	// SpansPerSec is the target span budget; the controller scales the
	// sampling modulus N so observed deliveries/sec / N stays under it.
	// Default 1000.
	SpansPerSec float64
	// Quantum is the VT grain epoch boundaries are aligned to (default
	// span.DefaultQuantum, 250ms of virtual time).
	Quantum Ticks
	// PollEvery is the controller's observation cadence (default 1s).
	PollEvery time.Duration
}

func (a AdaptiveSampling) withDefaults() AdaptiveSampling {
	if a.SpansPerSec <= 0 {
		a.SpansPerSec = 1000
	}
	if a.PollEvery <= 0 {
		a.PollEvery = time.Second
	}
	return a
}

// WithAdaptiveSpanSampling replaces the static head-sampling modulus with a
// controller that scales 1/N with observed traffic, keeping the span rate
// near a fixed budget under any arrival schedule. Implies span tracing.
//
// Rate changes take effect at VT-quantized epoch boundaries scheduled
// strictly in the future, and the decision for each origin additionally
// travels inside its envelopes, so a mid-journey rate change can never
// half-trace an origin — replay and the recovered replica re-derive the
// identical decisions from the logged (origin, VT) pairs. Every epoch
// switch is recorded as a sample-epoch flight event (with WithFlightRecorder)
// and surfaced in the tart_span_sample_n / tart_span_sample_epochs_total
// metric families.
func WithAdaptiveSpanSampling(cfg AdaptiveSampling) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		a := cfg.withDefaults()
		c.adaptive = &a
		c.spansOn = true
	})
}

// AdaptDecision is one closed-loop adaptive-runtime decision (see
// WithAdaptiveRuntime): an estimator recalibration, a silence-strategy
// switch, or a sampling-degradation step, stamped with the VT epoch
// boundary it takes effect at.
type AdaptDecision = adapt.Decision

// AdaptStatus is the adaptive runtime's live snapshot: per-component
// estimator residuals, per-wire silence strategies, and the recent
// decision ring (served at /adapt and by `tartctl adapt`).
type AdaptStatus = adapt.Status

// Adaptive-decision kinds.
const (
	AdaptRecalibrate = adapt.KindRecalibrate
	AdaptSilence     = adapt.KindSilence
	AdaptSampling    = adapt.KindSampling
)

// AdaptiveRuntime tunes WithAdaptiveRuntime. Zero values pick defaults.
type AdaptiveRuntime struct {
	// PollEvery is the control loop's harvest cadence (default 250ms).
	PollEvery time.Duration
	// Quantum is the VT grain decision epoch boundaries are aligned to
	// (default span.DefaultQuantum, 250ms of virtual time).
	Quantum Ticks
	// MinSamples gates recalibration on a minimum compute-span window
	// (default 16).
	MinSamples int
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
	// DegradedSampleN is the sampling modulus while SLO burn degrades
	// sampling (default 64). Needs WithSLO to matter.
	DegradedSampleN int
}

func (a AdaptiveRuntime) withDefaults() AdaptiveRuntime {
	if a.PollEvery <= 0 {
		a.PollEvery = 250 * time.Millisecond
	}
	if a.DegradedSampleN <= 0 {
		a.DegradedSampleN = 64
	}
	return a
}

func (a AdaptiveRuntime) controllerConfig() adapt.Config {
	return adapt.Config{
		Quantum:         vt.Ticks(a.Quantum),
		MinSamples:      a.MinSamples,
		MinBlameSeconds: a.MinBlame.Seconds(),
		QuietWindows:    a.QuietWindows,
		MaxStrategy:     a.MaxStrategy,
		DegradedSampleN: uint64(a.DegradedSampleN),
	}
}

// WithAdaptiveRuntime closes the observability loop: a per-cluster
// controller harvests sampled compute spans, pessimism-blame attribution,
// and the SLO burn rate, and turns them into three control actions —
// estimator recalibration (span-measured wall time against charged VT,
// pushed through the logged determinism-fault path), per-wire silence
// strategy selection (the dominant blamed wire's upstream escalates
// lazy→aggressive→bias, and steps back when quiet), and SLO-burn-fed
// degradation (sampling steps down and escalation gets more eager while
// the error budget burns).
//
// Determinism is preserved by construction: every action takes effect only
// at a VT-quantized, strictly-future epoch boundary and is recorded as a
// logged determinism fault (estimator, silence) or an append-only rate
// epoch (sampling), so replay, the passive replica, and time-travel rewind
// re-derive identical behaviour from the log without re-running the
// control loop. Decisions surface as adapt-decision flight events (with
// WithFlightRecorder), the /adapt debug endpoint, `tartctl adapt`, and the
// tart_adapt_* metric families. Implies span tracing; the scheduler's
// built-in sample-count recalibration is disabled in favour of the
// span-driven one.
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
// WithAdaptiveSpanSampling).
func (c *Cluster) SampleEpochs() []SampleRateEpoch {
	if c.schedule == nil {
		return nil
	}
	return c.schedule.Epochs()
}

// OTLPStats reports the OTLP exporter's counters (zero without
// WithOTLPExport).
func (c *Cluster) OTLPStats() OTLPStats { return c.otlp.Stats() }

// seedAdaptMetrics gives the adaptive runtime's per-component and per-wire
// gauges a series at launch, so dashboards and exposition audits see the
// families before (and whether or not) the first decision fires.
func (c *Cluster) seedAdaptMetrics() {
	for _, s := range c.liveSlots() {
		for _, comp := range s.eng.Hosted() {
			if _, ok := s.eng.Calibrated(comp); ok {
				c.ctl.residual(comp)
			}
		}
	}
	for wire, up := range c.wireUp {
		// Before the controller's first escalation the effective strategy is
		// the upstream governor's own configuration.
		if cfg, err := c.SilenceConfigOf(up); err == nil {
			c.ctl.strategy(wire).Set(int64(cfg.Strategy))
		}
	}
}

// rateController returns the sampling-rate tick: it polls the cluster-wide
// delivery rate and proposes a new 1/N whenever the budget-implied modulus
// (rounded to a power of two for hysteresis) differs from the current one.
func (c *Cluster) rateController(a AdaptiveSampling) func() {
	lastDelivered, lastAt := c.totalDelivered(), time.Now()
	return func() {
		delivered, now := c.totalDelivered(), time.Now()
		dt := now.Sub(lastAt).Seconds()
		if dt <= 0 {
			return
		}
		if delivered < lastDelivered {
			// A slot restarted with a fresh count: no rate this poll.
			lastDelivered, lastAt = delivered, now
			return
		}
		rate := float64(delivered-lastDelivered) / dt
		lastDelivered, lastAt = delivered, now

		// A sampled delivery yields a handful of spans (queueing, pessimism,
		// compute, linger); budget against that fan-out, then quantize the
		// modulus to a power of two so small rate wobbles don't thrash.
		const spansPerDelivery = 3
		want := uint64(1)
		if need := rate * spansPerDelivery / a.SpansPerSec; need > 1 {
			want = min(nextPow2(uint64(need)), maxSampleN)
		}
		if c.adaptCtl != nil {
			// While SLO burn holds sampling degraded the budget may thin it
			// further but never undo the degradation. Deciding under the
			// controller's lock orders this proposal against its own.
			c.adaptMu.Lock()
			defer c.adaptMu.Unlock()
			if c.adaptCtl.Degraded() {
				want = max(want, uint64(c.cfg.adaptRuntime.DegradedSampleN))
			}
		}
		cur := c.schedule.Current().N
		if want == cur {
			return
		}
		ep, ok := c.proposeSampleN(want)
		if !ok {
			return
		}
		note := fmt.Sprintf("1/%d -> 1/%d at %.0f deliveries/s", cur, ep.N, rate)
		for _, s := range c.slots() {
			if s.slot.rec != nil {
				s.slot.rec.Record(trace.Event{Kind: trace.EvSampleEpoch, VT: ep.Start, Wire: -1, Note: note})
			}
		}
	}
}

// proposeSampleN schedules a new sampling modulus past the live VT frontier
// and publishes it.
func (c *Cluster) proposeSampleN(n uint64) (span.RateEpoch, bool) {
	ep, ok := c.schedule.Propose(n, c.maxNowVT())
	if ok {
		c.ctl.sampleN.Set(int64(ep.N))
		c.ctl.sampleEpochs.Inc()
	}
	return ep, ok
}

// adaptStep is the adaptive runtime's tick: harvest an observation, step
// the policy, route the decisions.
func (c *Cluster) adaptStep() {
	obs := adapt.Observation{
		Now:     c.maxNowVT(),
		Compute: make(map[string][]adapt.ComputeSample),
		Coeffs:  make(map[string][]float64),
		Blame:   make(map[string]adapt.WireBlame),
		SampleN: c.schedule.Current().N,
	}
	slots := c.liveSlots()
	for _, s := range slots {
		eng := s.eng
		// Compute samples: new (ID past the watermark), non-replayed compute
		// spans of calibrated components. Wall is what the handler measured;
		// Charged is what the estimator billed in virtual time.
		for _, sp := range s.slot.spans.Spans() {
			if sp.ID <= s.slot.harvested {
				continue
			}
			s.slot.harvested = sp.ID
			if sp.Phase != span.PhaseCompute || sp.Replayed || sp.Component == "" {
				continue
			}
			if _, ok := eng.Calibrated(sp.Component); !ok {
				continue
			}
			obs.Compute[sp.Component] = append(obs.Compute[sp.Component], adapt.ComputeSample{
				WallNanos: float64(sp.End.Sub(sp.Start).Nanoseconds()),
				Charged:   float64(sp.EndVT - sp.StartVT),
			})
		}
		for _, comp := range eng.Hosted() {
			if cal, ok := eng.Calibrated(comp); ok {
				obs.Coeffs[comp] = cal.Coeffs(eng.ComponentVT(comp))
			}
		}
		// Blame: cumulative per-wire blamed pessimism seconds (histogram
		// sums); the controller windows successive readings itself.
		for _, fam := range eng.Metrics().Registry().Gather() {
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

	c.adaptMu.Lock()
	decisions := c.adaptCtl.Step(obs)
	status := c.adaptCtl.Status(obs.Coeffs)
	c.adaptMu.Unlock()

	for _, comp := range status.Components {
		c.ctl.residual(comp.Component).Set(comp.Residual)
	}
	c.publishStrategyGauges()
	for _, d := range decisions {
		c.applyAdaptDecision(d, slots)
	}
}

// publishStrategyGauges exports the currently selected silence strategy of
// every inter-component wire's upstream (value = strategy enum).
func (c *Cluster) publishStrategyGauges() {
	for wire, up := range c.wireUp {
		if cfg, ok := c.strategyOfLocked(up); ok {
			c.ctl.strategy(wire).Set(int64(cfg.Strategy))
		}
	}
}

func (c *Cluster) strategyOfLocked(component string) (silence.Config, bool) {
	c.adaptMu.Lock()
	defer c.adaptMu.Unlock()
	return c.adaptCtl.StrategyOf(component)
}

// applyAdaptDecision routes one controller decision to the engines,
// counting it and recording an adapt-decision flight event on the hosting
// engine (or every engine for cluster-wide sampling steps).
func (c *Cluster) applyAdaptDecision(d AdaptDecision, slots []slotView) {
	c.ctl.decisions(d.Kind).Inc()
	note := fmt.Sprintf("%s: %s", d.Kind, d.Cause)
	switch d.Kind {
	case adapt.KindSampling:
		c.proposeSampleN(d.SampleN)
		for _, s := range slots {
			if s.slot.rec != nil {
				s.slot.rec.Record(trace.Event{Kind: trace.EvAdaptDecision, VT: d.EffectiveVT, Wire: -1, Note: note})
			}
		}
	case adapt.KindRecalibrate:
		v, err := c.componentEngine(d.Component)
		if err != nil {
			return
		}
		fault := estimator.Fault{EffectiveVT: vt.Time(d.EffectiveVT), Coeffs: d.Coeffs}
		if err := v.eng.CommitEstimatorFault(d.Component, fault); err != nil {
			return // e.g. racing an earlier fault at a later VT; next poll retries
		}
		c.ctl.recalibrations.Inc()
		v.eng.Metrics().Registry().DeterminismFaults(d.Component, "adapt-recalibrate").Inc()
		if v.slot.rec != nil {
			v.slot.rec.Record(trace.Event{Kind: trace.EvAdaptDecision, VT: d.EffectiveVT, Component: d.Component, Wire: -1, Note: note})
		}
	case adapt.KindSilence:
		v, err := c.componentEngine(d.Component)
		if err != nil {
			return
		}
		if err := v.eng.CommitSilenceFault(d.Component, d.Silence, vt.Time(d.EffectiveVT)); err != nil {
			return
		}
		v.eng.Metrics().Registry().DeterminismFaults(d.Component, "adapt-silence").Inc()
		if v.slot.rec != nil {
			v.slot.rec.Record(trace.Event{Kind: trace.EvAdaptDecision, VT: d.EffectiveVT, Component: d.Component, Wire: -1, Note: note})
		}
	}
}

// AdaptStatus snapshots the adaptive runtime: per-component residuals and
// coefficients, per-wire strategies, and the recent decision ring. Zero
// without WithAdaptiveRuntime.
func (c *Cluster) AdaptStatus() AdaptStatus {
	if c.adaptCtl == nil {
		return AdaptStatus{}
	}
	coeffs := make(map[string][]float64)
	for _, s := range c.liveSlots() {
		for _, comp := range s.eng.Hosted() {
			if cal, ok := s.eng.Calibrated(comp); ok {
				coeffs[comp] = cal.Coeffs(s.eng.ComponentVT(comp))
			}
		}
	}
	c.adaptMu.Lock()
	defer c.adaptMu.Unlock()
	return c.adaptCtl.Status(coeffs)
}

// AdaptDecisions returns the adaptive runtime's retained decisions, oldest
// first (nil without WithAdaptiveRuntime).
func (c *Cluster) AdaptDecisions() []AdaptDecision {
	if c.adaptCtl == nil {
		return nil
	}
	c.adaptMu.Lock()
	defer c.adaptMu.Unlock()
	return c.adaptCtl.Decisions()
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

// maxNowVT returns the most advanced live virtual-time frontier — the
// point new epoch boundaries must be scheduled beyond. Component scheduler
// clocks are included because manual-clock deployments keep the engine
// clock pinned while schedulers advance with processed messages.
func (c *Cluster) maxNowVT() vt.Time {
	now := vt.Zero
	for _, s := range c.liveSlots() {
		now = max(now, s.eng.NowVT())
		for _, comp := range s.eng.Hosted() {
			now = max(now, s.eng.ComponentVT(comp))
		}
	}
	return now
}

func nextPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len64(v-1)
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
