// Package trace collects the runtime metrics the paper's evaluation
// reports: end-to-end latency, pessimism delay (the intrinsic overhead of
// deterministic scheduling, §II.E), curiosity-probe counts, messages
// arriving out of real-time order, and recovery-related counters.
package trace

import "repro/internal/trace/span"

// Metrics bundles an engine's push attachments: the labeled Registry its
// push-only families live in, the flight Recorder and the span Collector.
// The engine, its schedulers and its TCP connections report into it as
// their observer (observe.go). The zero value has none attached, and every
// report then updates nothing. Counts are not here: the scheduler and the
// engine keep them, and a reader pulls them.
type Metrics struct {
	reg   *Registry
	rec   *Recorder
	spans *span.Collector
	sock  socketObs
}

// SetRegistry attaches a labeled metrics registry and seeds the engine's
// and the transport's push families in it. Attach before the engine starts;
// the fields are read without synchronization afterwards.
func (m *Metrics) SetRegistry(r *Registry) {
	m.reg = r
	seedEngine(r)
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
