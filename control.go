package tart

import (
	"time"

	"repro/internal/trace"
	"repro/internal/trace/span"
)

// The cluster's control plane: the loops around the deterministic core that
// detect failures and fail engines over, and run the adaptive runtime
// (which steers span sampling). Each runs on its own goroutine — a
// supervisor Recover can take hundreds of milliseconds on durable state and
// must never delay a sampling tick — but both are started by every and
// stopped together by Stop. Checkpoint timing is not among them: the
// engine's WithCheckpointEvery ticker and Cluster.Checkpoint own it. What
// only reads what the cluster publishes (SLO evaluation, span export) runs
// in the harness over MetricFamilies and Spans, not here.

// startControlPlane starts the configured loops. Called at the end of
// Launch, once every engine is running.
func (c *Cluster) startControlPlane() {
	if c.sup != nil {
		c.every(c.sup.cfg.PollEvery, c.sup.tick)
	}
	if c.adaptCtl != nil {
		c.every(c.cfg.adaptRuntime.PollEvery, c.adaptStep)
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

// controlMetrics is the cluster-level registry: the supervisor and
// adaptive-runtime families, appended to every engine's /metrics. Each
// family's help text is written here once. The adaptive runtime's families
// exist only with it: its epoch counter is seeded at zero and its modulus
// read from the schedule at gather time. The others are resolved per label
// set when first used.
type controlMetrics struct {
	reg          *trace.Registry
	sampleEpochs *trace.Counter // with the adaptive runtime
}

// newControlMetrics builds the registry; schedule is the adaptive runtime's
// sampling schedule, nil without it.
func newControlMetrics(schedule *span.Schedule) *controlMetrics {
	m := &controlMetrics{reg: trace.NewRegistry()}
	if schedule != nil {
		m.reg.Collect(trace.MetricSampleN, "Current adaptive head-sampling modulus (1 traced origin in N).", "gauge",
			func(emit trace.Emit) { emit(float64(schedule.Current().N)) })
		m.sampleEpochs = m.reg.Counter(trace.MetricSampleEpochs,
			"Adaptive sampling-rate epoch switches committed by the controller.")
	}
	return m
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
