package tart

import (
	"fmt"
	"io"
	"math/bits"
	"time"

	"repro/internal/adapt"
	"repro/internal/engine"
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

// AdaptiveSampling tunes WithAdaptiveSpanSampling. Zero values pick
// defaults.
type AdaptiveSampling struct {
	// SpansPerSec is the target span budget; the controller scales the
	// sampling modulus N so observed deliveries/sec / N stays under it.
	// Default 1000.
	SpansPerSec float64
	// MinN / MaxN clamp the modulus (defaults 1 and 1<<20).
	MinN, MaxN uint64
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
	if a.MinN == 0 {
		a.MinN = 1
	}
	if a.MaxN == 0 {
		a.MaxN = 1 << 20
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
	// ResidualThreshold is the relative estimator residual
	// (Σ|wall−charged|/Σwall over the window) above which a recalibration
	// fires (default 0.25).
	ResidualThreshold float64
	// MinBlame is the windowed pessimism blame below which no silence
	// escalation happens (default 10ms).
	MinBlame time.Duration
	// BlameShare is the fraction of windowed blame the dominant wire must
	// hold to escalate its upstream (default 0.5).
	BlameShare float64
	// QuietWindows is how many blame-free polls an escalated component
	// needs before stepping back down (default 8).
	QuietWindows int
	// Bias is the promise bias installed at the HyperAggressive step
	// (default 2ms of virtual time).
	Bias Ticks
	// MaxStrategy caps escalation (default HyperAggressive). Cap at
	// Aggressive to keep output virtual times bias-free — required when
	// byte-identical replay of outputs matters more than won-back latency.
	MaxStrategy SilenceStrategy
	// BurnThreshold is the SLO burn rate above which sampling degrades
	// (default 1.0; recovery below half of it). Needs WithSLO to matter.
	BurnThreshold float64
	// DegradedSampleN is the sampling modulus while degraded (default 64).
	DegradedSampleN int
	// History bounds the retained decision ring (default 64).
	History int
}

func (a AdaptiveRuntime) withDefaults() AdaptiveRuntime {
	if a.PollEvery <= 0 {
		a.PollEvery = 250 * time.Millisecond
	}
	return a
}

func (a AdaptiveRuntime) controllerConfig() adapt.Config {
	return adapt.Config{
		Quantum:           vt.Ticks(a.Quantum),
		MinSamples:        a.MinSamples,
		ResidualThreshold: a.ResidualThreshold,
		MinBlameSeconds:   a.MinBlame.Seconds(),
		BlameShare:        a.BlameShare,
		QuietWindows:      a.QuietWindows,
		Bias:              vt.Ticks(a.Bias),
		MaxStrategy:       a.MaxStrategy,
		BurnThreshold:     a.BurnThreshold,
		DegradedSampleN:   uint64(max(a.DegradedSampleN, 0)),
		History:           a.History,
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

// startObservers launches the cluster-level observability goroutines: the
// adaptive-sampling controller and the OTLP drain. Called at the end of
// Launch; stopped (and final-drained) by Stop.
func (c *Cluster) startObservers() {
	if c.cfg.adaptive != nil {
		c.bg.Add(1)
		go c.adaptiveLoop()
	}
	if c.adaptCtl != nil {
		c.seedAdaptMetrics()
		c.bg.Add(1)
		go c.adaptRuntimeLoop()
	}
	if c.otlp != nil {
		c.bg.Add(1)
		go c.otlpLoop()
	}
	if c.cfg.timetravel != nil && c.cfg.timetravel.CheckpointEveryVT > 0 {
		c.bg.Add(1)
		go c.vtCheckpointLoop()
	}
}

// seedAdaptMetrics registers every adaptive-runtime metric family with a
// zero-valued series at launch, so dashboards and exposition audits see the
// families before (and whether or not) the first decision fires.
func (c *Cluster) seedAdaptMetrics() {
	for _, kind := range []adapt.Kind{adapt.KindSampling, adapt.KindRecalibrate, adapt.KindSilence} {
		c.obsReg.Counter(trace.MetricAdaptDecisions,
			"Closed-loop adaptive-runtime decisions taken, by kind.",
			trace.L("kind", string(kind)))
	}
	c.obsReg.Counter(trace.MetricAdaptRecalibrations,
		"Span-driven estimator recalibrations committed as determinism faults.")
	for _, s := range c.liveSlots() {
		for _, comp := range s.eng.Hosted() {
			if _, ok := s.eng.Calibrated(comp); ok {
				c.obsReg.FloatGauge(trace.MetricEstResidual,
					"Relative estimator residual over the recent compute-span window (|wall-charged|/wall).",
					trace.L("component", comp))
			}
		}
	}
	for wire, up := range c.wireUp {
		// Before the controller's first escalation the effective strategy is
		// the upstream governor's own configuration.
		cfg, err := c.SilenceConfigOf(up)
		if err != nil {
			continue
		}
		c.obsReg.Gauge(trace.MetricAdaptSilenceStrategy,
			"Silence strategy selected for the wire's upstream component (1=lazy 2=curiosity 3=aggressive 4=hyper-aggressive).",
			trace.L("wire", wire)).Set(int64(cfg.Strategy))
	}
}

// adaptiveLoop is the sampling-rate controller: it polls the cluster-wide
// delivery rate and proposes a new 1/N whenever the budget-implied modulus
// (rounded to a power of two for hysteresis) differs from the current one.
func (c *Cluster) adaptiveLoop() {
	defer c.bg.Done()
	a := *c.cfg.adaptive
	t := time.NewTicker(a.PollEvery)
	defer t.Stop()
	lastDelivered := c.totalDelivered()
	lastAt := time.Now()
	for {
		select {
		case <-c.bgStop:
			return
		case <-t.C:
		}
		delivered := c.totalDelivered()
		now := time.Now()
		dt := now.Sub(lastAt).Seconds()
		if dt <= 0 {
			continue
		}
		if delivered < lastDelivered {
			// A slot restarted with a fresh count: no rate this poll.
			lastDelivered, lastAt = delivered, now
			continue
		}
		rate := float64(delivered-lastDelivered) / dt
		lastDelivered, lastAt = delivered, now

		// A sampled delivery yields a handful of spans (queueing, pessimism,
		// compute, linger); budget against that fan-out, then quantize the
		// modulus to a power of two so small rate wobbles don't thrash.
		const spansPerDelivery = 3
		want := uint64(1)
		if need := rate * spansPerDelivery / a.SpansPerSec; need > 1 {
			want = nextPow2(uint64(need))
		}
		if want < a.MinN {
			want = a.MinN
		}
		if want > a.MaxN {
			want = a.MaxN
		}
		cur := c.schedule.Current().N
		if want == cur {
			continue
		}
		ep, ok := c.schedule.Propose(want, c.maxNowVT())
		if !ok {
			continue
		}
		note := fmt.Sprintf("1/%d -> 1/%d at %.0f deliveries/s", cur, ep.N, rate)
		c.obsReg.Gauge(trace.MetricSampleN,
			"Current adaptive head-sampling modulus (1 traced origin in N).").Set(int64(ep.N))
		c.obsReg.Counter(trace.MetricSampleEpochs,
			"Adaptive sampling-rate epoch switches proposed by the controller.").Inc()
		c.mu.Lock()
		slots := make([]*engineSlot, 0, len(c.engines))
		for _, s := range c.engines {
			slots = append(slots, s)
		}
		c.mu.Unlock()
		for _, s := range slots {
			if s.rec != nil {
				s.rec.Record(trace.Event{Kind: trace.EvSampleEpoch, VT: ep.Start, Wire: -1, Note: note})
			}
		}
	}
}

// adaptRuntimeLoop drives the closed-loop controller: harvest an
// observation, step the policy, route the decisions.
func (c *Cluster) adaptRuntimeLoop() {
	defer c.bg.Done()
	t := time.NewTicker(c.cfg.adaptRuntime.PollEvery)
	defer t.Stop()
	marks := make(map[string]uint64) // per-engine span-ID harvest watermark
	for {
		select {
		case <-c.bgStop:
			return
		case <-t.C:
			c.adaptStep(marks)
		}
	}
}

// liveEngine pairs a non-failed slot with the engine incarnation observed
// under the cluster lock. Callers must use the captured eng rather than
// re-reading slot.eng: a concurrent supervisor Recover swaps the slot's
// engine pointer, and reading it unlocked races the failover.
type liveEngine struct {
	slot *engineSlot
	eng  *engine.Engine
}

// liveSlots snapshots the non-failed engine slots and their current engine
// incarnations.
func (c *Cluster) liveSlots() []liveEngine {
	c.mu.Lock()
	defer c.mu.Unlock()
	slots := make([]liveEngine, 0, len(c.engines))
	for _, s := range c.engines {
		if !s.failed {
			slots = append(slots, liveEngine{slot: s, eng: s.eng})
		}
	}
	return slots
}

// adaptStep performs one control iteration: harvest → Step → route.
func (c *Cluster) adaptStep(marks map[string]uint64) {
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
		if s.slot.spans != nil {
			mark := marks[s.slot.name]
			for _, sp := range s.slot.spans.Spans() {
				if sp.ID <= mark {
					continue
				}
				if sp.ID > marks[s.slot.name] {
					marks[s.slot.name] = sp.ID
				}
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
		c.obsReg.FloatGauge(trace.MetricEstResidual,
			"Relative estimator residual over the recent compute-span window (|wall-charged|/wall).",
			trace.L("component", comp.Component)).Set(comp.Residual)
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
		cfg, ok := c.strategyOfLocked(up)
		if !ok {
			continue
		}
		c.obsReg.Gauge(trace.MetricAdaptSilenceStrategy,
			"Silence strategy selected for the wire's upstream component (1=lazy 2=curiosity 3=aggressive 4=hyper-aggressive).",
			trace.L("wire", wire)).Set(int64(cfg.Strategy))
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
func (c *Cluster) applyAdaptDecision(d AdaptDecision, slots []liveEngine) {
	c.obsReg.Counter(trace.MetricAdaptDecisions,
		"Closed-loop adaptive-runtime decisions taken, by kind.",
		trace.L("kind", string(d.Kind))).Inc()
	note := fmt.Sprintf("%s: %s", d.Kind, d.Cause)
	switch d.Kind {
	case adapt.KindSampling:
		if ep, ok := c.schedule.Propose(d.SampleN, c.maxNowVT()); ok {
			c.obsReg.Gauge(trace.MetricSampleN,
				"Current adaptive head-sampling modulus (1 traced origin in N).").Set(int64(ep.N))
			c.obsReg.Counter(trace.MetricSampleEpochs,
				"Adaptive sampling-rate epoch switches proposed by the controller.").Inc()
		}
		for _, s := range slots {
			if s.slot.rec != nil {
				s.slot.rec.Record(trace.Event{Kind: trace.EvAdaptDecision, VT: d.EffectiveVT, Wire: -1, Note: note})
			}
		}
	case adapt.KindRecalibrate:
		le, ok := c.slotOfComponent(d.Component)
		if !ok {
			return
		}
		fault := estimator.Fault{EffectiveVT: vt.Time(d.EffectiveVT), Coeffs: d.Coeffs}
		if err := le.eng.CommitEstimatorFault(d.Component, fault); err != nil {
			return // e.g. racing an earlier fault at a later VT; next poll retries
		}
		c.obsReg.Counter(trace.MetricAdaptRecalibrations,
			"Span-driven estimator recalibrations committed as determinism faults.").Inc()
		le.eng.Metrics().Registry().DeterminismFaults(d.Component, "adapt-recalibrate").Inc()
		if le.slot.rec != nil {
			le.slot.rec.Record(trace.Event{Kind: trace.EvAdaptDecision, VT: d.EffectiveVT, Component: d.Component, Wire: -1, Note: note})
		}
	case adapt.KindSilence:
		le, ok := c.slotOfComponent(d.Component)
		if !ok {
			return
		}
		if err := le.eng.CommitSilenceFault(d.Component, d.Silence, vt.Time(d.EffectiveVT)); err != nil {
			return
		}
		le.eng.Metrics().Registry().DeterminismFaults(d.Component, "adapt-silence").Inc()
		if le.slot.rec != nil {
			le.slot.rec.Record(trace.Event{Kind: trace.EvAdaptDecision, VT: d.EffectiveVT, Component: d.Component, Wire: -1, Note: note})
		}
	}
}

// slotOfComponent returns the live slot hosting a component, with the
// engine incarnation captured under the cluster lock (false when the
// component is unknown or its engine is down).
func (c *Cluster) slotOfComponent(component string) (liveEngine, bool) {
	comp, ok := c.tp.ComponentByName(component)
	if !ok {
		return liveEngine{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := c.engines[comp.Engine]
	if slot == nil || slot.failed {
		return liveEngine{}, false
	}
	return liveEngine{slot: slot, eng: slot.eng}, true
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
	c.mu.Lock()
	engines := make([]*engine.Engine, 0, len(c.engines))
	for _, s := range c.engines {
		engines = append(engines, s.eng)
	}
	c.mu.Unlock()
	var total int64
	for _, e := range engines {
		total += e.Metrics().Snapshot().Delivered
	}
	return total
}

// maxNowVT returns the most advanced live virtual-time frontier — the
// point new epoch boundaries must be scheduled beyond. Component scheduler
// clocks are included because manual-clock deployments keep the engine
// clock pinned while schedulers advance with processed messages.
func (c *Cluster) maxNowVT() vt.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := vt.Zero
	for _, s := range c.engines {
		if s.failed {
			continue
		}
		if t := s.eng.NowVT(); t > now {
			now = t
		}
		for _, comp := range s.eng.Hosted() {
			if t := s.eng.ComponentVT(comp); t > now {
				now = t
			}
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

// otlpLoop incrementally drains every collector into the exporter: spans
// carry monotonically increasing per-collector IDs, so a watermark per
// engine exports each span exactly once (modulo ring overwrite under
// extreme backlog, which loses oldest-first — matching the collector's own
// retention).
func (c *Cluster) otlpLoop() {
	defer c.bg.Done()
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	marks := make(map[string]uint64)
	for {
		select {
		case <-c.bgStop:
			c.drainOTLP(marks)
			c.otlp.Close()
			return
		case <-t.C:
			c.drainOTLP(marks)
		}
	}
}

func (c *Cluster) drainOTLP(marks map[string]uint64) {
	c.mu.Lock()
	slots := make([]*engineSlot, 0, len(c.engines))
	for _, s := range c.engines {
		slots = append(slots, s)
	}
	c.mu.Unlock()
	for _, s := range slots {
		mark := marks[s.name]
		for _, sp := range s.spans.Spans() {
			if sp.ID <= mark {
				continue
			}
			c.otlp.Enqueue(sp)
			if sp.ID > marks[s.name] {
				marks[s.name] = sp.ID
			}
		}
	}
}

// extraMetrics composes the cluster-level series appended to every
// engine's /metrics exposition: supervisor families, adaptive-sampling
// families, and the live SLO families. Returns nil when none apply so the
// debug handler skips the extra pass entirely.
func (c *Cluster) extraMetrics() func(io.Writer) {
	sup := c.sup
	obs := c.obsReg
	tracker := c.cfg.slo
	if sup == nil && obs == nil && tracker == nil {
		return nil
	}
	return func(w io.Writer) {
		if sup != nil {
			_ = sup.reg.WritePrometheus(w)
		}
		if obs != nil {
			_ = obs.WritePrometheus(w)
		}
		if tracker != nil {
			_ = tracker.WriteMetrics(w)
		}
	}
}
