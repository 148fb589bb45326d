package tart

import (
	"time"

	"repro/internal/trace"
)

// The cluster's control plane: the supervisor loop around the deterministic
// core, which detects failures and fails engines over. It runs on its own
// goroutine, started at the end of Launch and stopped by Stop before any
// engine. Checkpoint timing is not part of it: the engine's
// WithCheckpointEvery ticker and Cluster.Checkpoint own it. What only reads
// what the cluster publishes (SLO evaluation, span export) runs in the
// harness over MetricFamilies and Spans, not here.

// startControlPlane starts the supervisor's tick, if one is configured, on
// its own goroutine until Stop closes bgStop. Called at the end of Launch,
// once every engine is running.
func (c *Cluster) startControlPlane() {
	if c.sup == nil {
		return
	}
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		t := time.NewTicker(c.sup.cfg.PollEvery)
		defer t.Stop()
		for {
			select {
			case <-c.bgStop:
				return
			case <-t.C:
				c.sup.tick()
			}
		}
	}()
}

// controlMetrics is the cluster-level registry: the supervisor's families,
// appended to every engine's /metrics. Each family's help text is written
// here once; each is resolved per label set when first used.
type controlMetrics struct {
	reg *trace.Registry
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
