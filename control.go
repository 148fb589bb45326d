package tart

import (
	"io"
	"time"

	"repro/internal/adapt"
	"repro/internal/trace"
	"repro/internal/trace/span"
)

// The cluster's control plane: the loops around the deterministic core that
// detect failures and fail engines over, steer span sampling and the
// adaptive runtime, export spans and take VT-cadence checkpoints. Each runs
// on its own goroutine — a supervisor Recover can take hundreds of
// milliseconds on durable state and must never delay a checkpoint or a
// drain — but all are started by every and stopped together by Stop.

// startControlPlane starts the configured loops. Called at the end of
// Launch, once every engine is running.
func (c *Cluster) startControlPlane() {
	if c.sup != nil {
		c.every(c.sup.cfg.PollEvery, c.sup.tick)
	}
	if a := c.cfg.adaptive; a != nil {
		c.every(a.PollEvery, c.rateController(*a))
	}
	if c.adaptCtl != nil {
		c.seedAdaptMetrics()
		c.every(c.cfg.adaptRuntime.PollEvery, c.adaptStep)
	}
	if c.otlp != nil {
		c.every(500*time.Millisecond, c.drainOTLP)
	}
	if tt := c.cfg.timetravel; tt != nil && tt.CheckpointEveryVT > 0 {
		c.every(tt.PollEvery, c.vtCheckpoint)
	}
}

// every runs fn once per period on its own goroutine until Stop closes
// bgStop.
func (c *Cluster) every(period time.Duration, fn func()) {
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-c.bgStop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// controlMetrics is the cluster-level registry: the supervisor, sampling
// and adaptive-runtime families, appended to every engine's /metrics. Each
// family's help text is written here once. The label-free handles are
// resolved — and so seeded at zero — only when the loop that updates them
// runs; the others are resolved per label set when first used.
type controlMetrics struct {
	reg            *trace.Registry
	sampleN        *trace.Gauge   // with a sampling schedule
	sampleEpochs   *trace.Counter // with a sampling schedule
	recalibrations *trace.Counter // with the adaptive runtime
}

func newControlMetrics(schedule *span.Schedule, adaptive bool) *controlMetrics {
	m := &controlMetrics{reg: trace.NewRegistry()}
	if schedule != nil {
		m.sampleN = m.reg.Gauge(trace.MetricSampleN,
			"Current adaptive head-sampling modulus (1 traced origin in N).")
		m.sampleN.Set(int64(schedule.Current().N))
		m.sampleEpochs = m.reg.Counter(trace.MetricSampleEpochs,
			"Adaptive sampling-rate epoch switches proposed by the controller.")
	}
	if adaptive {
		m.recalibrations = m.reg.Counter(trace.MetricAdaptRecalibrations,
			"Span-driven estimator recalibrations committed as determinism faults.")
		for _, kind := range []adapt.Kind{adapt.KindSampling, adapt.KindRecalibrate, adapt.KindSilence} {
			m.decisions(kind)
		}
	}
	return m
}

func (m *controlMetrics) decisions(kind adapt.Kind) *trace.Counter {
	return m.reg.Counter(trace.MetricAdaptDecisions,
		"Closed-loop adaptive-runtime decisions taken, by kind.", trace.L("kind", string(kind)))
}

func (m *controlMetrics) residual(component string) *trace.FloatGauge {
	return m.reg.FloatGauge(trace.MetricEstResidual,
		"Relative estimator residual over the recent compute-span window (|wall-charged|/wall).",
		trace.L("component", component))
}

func (m *controlMetrics) strategy(wire string) *trace.Gauge {
	return m.reg.Gauge(trace.MetricAdaptSilenceStrategy,
		"Silence strategy selected for the wire's upstream component (1=lazy 2=curiosity 3=aggressive 4=hyper-aggressive).",
		trace.L("wire", wire))
}

func (m *controlMetrics) suspicions(engine, cause string) *trace.Counter {
	return m.reg.Counter(trace.MetricSuspicions,
		"Engines suspected fail-stopped by the failover supervisor.",
		trace.L("engine", engine), trace.L("cause", cause))
}

func (m *controlMetrics) failovers(engine string) *trace.Counter {
	return m.reg.Counter(trace.MetricSupFailovers,
		"Completed supervisor-driven failovers.", trace.L("engine", engine))
}

func (m *controlMetrics) timeToRecover(engine string) *trace.Histogram {
	return m.reg.Histogram(trace.MetricTimeToRecover,
		"Suspicion-to-recovered latency of supervisor-driven failovers.",
		trace.SecondsBuckets, trace.L("engine", engine))
}

// extraMetrics composes the cluster-level series appended to every
// engine's /metrics exposition: the control-plane registry and the live SLO
// families. Returns nil when neither has anything to show so the debug
// handler skips the extra pass entirely.
func (c *Cluster) extraMetrics() func(io.Writer) {
	tracker := c.cfg.slo
	if c.sup == nil && c.schedule == nil && tracker == nil {
		return nil
	}
	return func(w io.Writer) {
		_ = c.ctl.reg.WritePrometheus(w)
		if tracker != nil {
			_ = tracker.WriteMetrics(w)
		}
	}
}
