// Package trace collects the runtime metrics the paper's evaluation
// reports: end-to-end latency, pessimism delay (the intrinsic overhead of
// deterministic scheduling, §II.E), curiosity-probe counts, messages
// arriving out of real-time order, and recovery-related counters.
package trace

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/trace/span"
)

// Metrics bundles an engine's observability attachments: the labeled
// Registry every counter lives in, the flight Recorder, the determinism
// AuditLog and the span Collector. Instrumented code resolves all four
// through it. The zero value has none attached, and every handle it hands
// out is then a valid no-op.
type Metrics struct {
	reg   *Registry
	rec   *Recorder
	audit *AuditLog
	spans *span.Collector
}

// SetRegistry attaches a labeled metrics registry. Attach before the
// engine starts; the field is read without synchronization afterwards.
func (m *Metrics) SetRegistry(r *Registry) { m.reg = r }

// Registry returns the attached registry (nil when none — nil registries
// hand out nil handles, which are valid no-ops).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// SetRecorder attaches a flight recorder. Attach before the engine
// starts; the field is read without synchronization afterwards.
func (m *Metrics) SetRecorder(r *Recorder) { m.rec = r }

// Recorder returns the attached flight recorder (nil when none — a nil
// recorder is a valid no-op recorder).
func (m *Metrics) Recorder() *Recorder {
	if m == nil {
		return nil
	}
	return m.rec
}

// SetAudit attaches a determinism audit log. Attach before the engine
// starts; the field is read without synchronization afterwards. A nil
// audit log disables delivery auditing (the scheduler skips the chain
// entirely, keeping the hot path at its unobserved cost).
func (m *Metrics) SetAudit(a *AuditLog) { m.audit = a }

// Audit returns the attached audit log (nil when auditing is disabled).
func (m *Metrics) Audit() *AuditLog {
	if m == nil {
		return nil
	}
	return m.audit
}

// SetSpans attaches a span collector. Attach before the engine starts;
// the field is read without synchronization afterwards. A nil collector
// disables span tracing (instrumented paths pay one nil check).
func (m *Metrics) SetSpans(c *span.Collector) { m.spans = c }

// Spans returns the attached span collector (nil when span tracing is
// disabled — a nil collector samples nothing and drops all records).
func (m *Metrics) Spans() *span.Collector {
	if m == nil {
		return nil
	}
	return m.spans
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

// LatencyRecorder accumulates end-to-end latency observations (in
// nanoseconds) for experiment harnesses. It is safe for concurrent use.
type LatencyRecorder struct {
	mu  sync.Mutex
	obs []float64
}

// Record appends one latency observation.
func (l *LatencyRecorder) Record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.obs = append(l.obs, float64(d))
}

// Samples returns a copy of the observations.
func (l *LatencyRecorder) Samples() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.obs))
	copy(out, l.obs)
	return out
}

// Count returns the number of observations recorded so far.
func (l *LatencyRecorder) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.obs)
}

// Reset discards all observations.
func (l *LatencyRecorder) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.obs = nil
}

// Quantiles returns the requested quantiles (0 <= p <= 1) of the recorded
// latencies, one per p, using linear interpolation. An empty recorder
// yields zeros.
func (l *LatencyRecorder) Quantiles(ps ...float64) []time.Duration {
	sorted := l.Samples()
	out := make([]time.Duration, len(ps))
	if len(sorted) == 0 {
		return out
	}
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = time.Duration(stats.Percentile(sorted, p))
	}
	return out
}

// LatencySummary condenses a latency sample for experiment reports.
type LatencySummary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summary computes count, mean, p50/p95/p99, and max of the recorded
// latencies. An empty recorder yields the zero summary.
func (l *LatencyRecorder) Summary() LatencySummary {
	sorted := l.Samples()
	if len(sorted) == 0 {
		return LatencySummary{}
	}
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return LatencySummary{
		Count: len(sorted),
		Mean:  time.Duration(sum / float64(len(sorted))),
		P50:   time.Duration(stats.Percentile(sorted, 0.50)),
		P95:   time.Duration(stats.Percentile(sorted, 0.95)),
		P99:   time.Duration(stats.Percentile(sorted, 0.99)),
		Max:   time.Duration(sorted[len(sorted)-1]),
	}
}
