package tart

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/vt"
)

// AdaptDecision is one adaptive-runtime decision (see WithAdaptiveRuntime):
// a span-sampling modulus switch, stamped with the VT epoch boundary it
// takes effect at.
type AdaptDecision = adapt.Decision

// AdaptStatus is the adaptive runtime's live snapshot: the recent decision
// ring (served at /adapt and by `tartctl adapt`).
type AdaptStatus = adapt.Status

// AdaptiveRuntime tunes WithAdaptiveRuntime. SpansPerSec is required;
// zero values of the other fields pick defaults.
type AdaptiveRuntime struct {
	// PollEvery is the control loop's harvest cadence (default 250ms).
	PollEvery time.Duration
	// Quantum is the VT grain decision epoch boundaries are aligned to
	// (default 250ms of virtual time).
	Quantum Ticks
	// SpansPerSec is the span budget: the sampling modulus N follows the
	// cluster's delivery rate so that deliveries/s / N stays under it,
	// rounded up to a power of two. Launch fails unless it is positive;
	// WithSpanTracing's modulus holds until the first rate window.
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
// per-cluster controller harvests the delivery rate and sets the
// span-sampling modulus so the span rate stays under the SpansPerSec
// budget (EXPERIMENTS *Span sampling cost* prices what that saves). Silence
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

// adaptStep is the adaptive runtime's tick: harvest an observation, step
// the policy, route its decision. The whole tick holds adaptMu, so a reader
// that takes it after seeing the VT frontier pass X finds every decision
// taken on a frontier below X already routed.
func (c *Cluster) adaptStep() {
	c.adaptMu.Lock()
	defer c.adaptMu.Unlock()
	c.adaptCtl.Step(adapt.Observation{
		Now:       c.maxNowVT(),
		Wall:      time.Now(),
		Delivered: c.totalDelivered(),
		SampleN:   c.schedule.Current().N,
	}, c.applyAdaptDecision)
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

// AdaptStatus snapshots the adaptive runtime's recent decision ring. Zero
// without WithAdaptiveRuntime.
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
// Reopen each start from zero), so the total drops when a slot is
// recovered.
func (c *Cluster) totalDelivered() int64 {
	var total int64
	for _, s := range c.slots() {
		total += s.eng.Totals().Delivered
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
