// Package trace collects the runtime metrics the paper's evaluation
// reports: end-to-end latency, pessimism delay (the intrinsic overhead of
// deterministic scheduling, §II.E), curiosity-probe counts, messages
// arriving out of real-time order, and recovery-related counters.
package trace

import (
	"math"
	"time"

	"repro/internal/trace/span"
)

// Metrics bundles an engine's observability attachments: the labeled
// Registry every counter lives in, the flight Recorder and the span
// Collector. The engine, its schedulers and its TCP connections report into
// it as their observer (observe.go). The zero value has none attached, and
// every report then updates nothing.
type Metrics struct {
	reg   *Registry
	rec   *Recorder
	spans *span.Collector
	sock  socketObs
}

// SetRegistry attaches a labeled metrics registry and resolves the
// transport's families in it. Attach before the engine starts; the fields
// are read without synchronization afterwards.
func (m *Metrics) SetRegistry(r *Registry) {
	m.reg = r
	m.sock = newSocketObs(r)
}

// Registry returns the attached registry (nil when none — nil registries
// hand out nil handles, which are valid no-ops).
func (m *Metrics) Registry() *Registry { return m.reg }

// SetRecorder attaches a flight recorder. Attach before the engine
// starts; the field is read without synchronization afterwards.
func (m *Metrics) SetRecorder(r *Recorder) { m.rec = r }

// SetSpans attaches a span collector and feeds every span it records into
// the registry's critical-path family, so the aggregate phase shares are
// scrapeable without a dump. Attach after the registry and before the
// engine starts; the field is read without synchronization afterwards. A
// nil collector disables span tracing (instrumented paths pay one nil
// check).
func (m *Metrics) SetSpans(c *span.Collector) {
	m.spans = c
	if c == nil {
		return
	}
	hists := make(map[string]*Histogram, len(span.Phases()))
	for _, p := range span.Phases() {
		hists[p.String()] = m.reg.Histogram(MetricCriticalPath,
			"Span-attributed share of traced end-to-end latency by phase.",
			SecondsBuckets, L("phase", p.String()))
	}
	c.SetObserver(func(phase string, seconds float64) {
		if h, ok := hists[phase]; ok {
			h.Observe(seconds)
		}
	})
}

// Snapshot is the engine-wide fold of the registry's paper-level families:
// each field sums one family over every label set (see Metrics.Snapshot).
type Snapshot struct {
	Delivered         int64         // tart_delivered_total
	OutOfOrder        int64         // tart_out_of_rt_order_total
	ProbesSent        int64         // tart_probes_total
	SilencesSent      int64         // tart_silences_total
	PessimismDelay    time.Duration // sum of tart_pessimism_delay_seconds
	PessimismEpisodes int64         // count of tart_pessimism_delay_seconds
	Checkpoints       int64         // tart_checkpoints_total
	CheckpointBytes   int64         // sum of tart_checkpoint_bytes
	ReplayRequests    int64         // tart_replay_serves_total
	DuplicatesDropped int64         // tart_duplicates_dropped_total + tart_holdback_dropped_total
	DeterminismFaults int64         // tart_determinism_faults_total, every cause
	Failovers         int64         // tart_failovers_total
}

// Snapshot reads the attached registry (all zeros without one).
func (m *Metrics) Snapshot() Snapshot {
	r := m.Registry()
	count := func(name string) int64 {
		sum, _ := r.Sum(name)
		return int64(sum)
	}
	pessimism, episodes := r.Sum(MetricPessimism)
	return Snapshot{
		Delivered:         count(MetricDelivered),
		OutOfOrder:        count(MetricOutOfOrder),
		ProbesSent:        count(MetricProbes),
		SilencesSent:      count(MetricSilences),
		PessimismDelay:    time.Duration(math.Round(pessimism * 1e9)),
		PessimismEpisodes: episodes,
		Checkpoints:       count(MetricCheckpoints),
		CheckpointBytes:   count(MetricCheckpointBytes),
		ReplayRequests:    count(MetricReplayServes),
		DuplicatesDropped: count(MetricDuplicates) + count(MetricHoldbackDrops),
		DeterminismFaults: count(MetricDetFaults),
		Failovers:         count(MetricFailovers),
	}
}
