// Labeled metrics registry: per-component and per-wire counters, gauges,
// and fixed-bucket histograms with a deterministic Prometheus text
// rendering (exposition format 0.0.4, stdlib only).
//
// Handles (*Counter, *Gauge, *Histogram) are resolved once — typically at
// scheduler/engine construction — and updated with plain atomics, so the
// hot path pays no map lookups and no locks. All handle methods are
// nil-receiver safe: code instrumented against a disabled registry keeps
// working at zero cost.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing metric cell.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric cell that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a gauge holding a float64 (latency quantiles, burn rates —
// values Prometheus conventions express in seconds or ratios, which the
// integer Gauge cannot carry).
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Observations are float64 in the
// metric's natural unit (seconds for latency-style metrics, bytes for
// sizes). Buckets are cumulative in the rendered output, per Prometheus
// convention.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v ⇒ v <= bound (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has len(Bounds)+1 entries,
	// the last being the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  uint64(h.count.Load()),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = uint64(h.counts[i].Load())
	}
	return s
}

// Mean returns the mean observation (0 for an empty histogram).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Default bucket ladders.
var (
	// SecondsBuckets spans 1 µs to 2.5 s (latency, pessimism delay,
	// checkpoint duration).
	SecondsBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
	}
	// BytesBuckets spans 256 B to 16 MiB (checkpoint encode sizes).
	BytesBuckets = []float64{
		256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
	}
	// SignedSecondsBuckets spans ±1 s symmetrically around zero, for signed
	// errors (predicted − measured estimator cost): negative buckets mean
	// underestimation, positive overestimation.
	SignedSecondsBuckets = []float64{
		-1, -0.1, -0.01, -1e-3, -1e-4, -1e-5, -1e-6,
		0, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1,
	}
)

type series struct {
	labels []Label // const labels + series labels, render order
	c      *Counter
	g      *Gauge
	f      *FloatGauge
	h      *Histogram
}

type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	series map[string]*series
}

// Registry is a labeled metric namespace, typically one per engine with an
// engine=<name> const label. Handle resolution takes the registry lock;
// handle updates are lock-free. The zero value is not usable; a nil
// *Registry hands out nil handles, which are valid no-ops.
type Registry struct {
	mu     sync.Mutex
	consts []Label
	fams   map[string]*family
}

// NewRegistry creates a registry whose every series carries the given
// constant labels.
func NewRegistry(consts ...Label) *Registry {
	return &Registry{consts: consts, fams: make(map[string]*family)}
}

// ConstLabels returns the registry's constant labels.
func (r *Registry) ConstLabels() []Label {
	if r == nil {
		return nil
	}
	return append([]Label(nil), r.consts...)
}

func (r *Registry) seriesFor(name, help, typ string, bounds []float64, labels []Label) *series {
	fam, ok := r.fams[name]
	if !ok {
		famTyp := typ
		if famTyp == "floatgauge" {
			famTyp = "gauge" // exposition TYPE; the cell stays a float
		}
		fam = &family{name: name, help: help, typ: famTyp, series: make(map[string]*series)}
		r.fams[name] = fam
	}
	key := labelKey(labels)
	s, ok := fam.series[key]
	if !ok {
		all := make([]Label, 0, len(r.consts)+len(labels))
		all = append(all, r.consts...)
		all = append(all, labels...)
		s = &series{labels: all}
		switch typ {
		case "counter":
			s.c = &Counter{}
		case "gauge":
			s.g = &Gauge{}
		case "floatgauge":
			s.f = &FloatGauge{}
		case "histogram":
			s.h = newHistogram(bounds)
		}
		fam.series[key] = s
	}
	return s
}

// Counter resolves (creating on first use) a counter handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesFor(name, help, "counter", nil, labels).c
}

// Gauge resolves (creating on first use) a gauge handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesFor(name, help, "gauge", nil, labels).g
}

// FloatGauge resolves (creating on first use) a float-valued gauge handle
// (rendered with TYPE gauge).
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesFor(name, help, "floatgauge", nil, labels).f
}

// Histogram resolves (creating on first use) a histogram handle; bounds are
// used only on first creation of the series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesFor(name, help, "histogram", bounds, labels).h
}

// Series is one labeled time series in a gathered snapshot.
type Series struct {
	Labels []Label
	Value  float64 // counters and gauges
	Hist   *HistogramSnapshot
}

// Get returns the value of the named label ("" when absent).
func (s Series) Get(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// MetricFamily is a gathered metric with all of its series.
type MetricFamily struct {
	Name   string
	Help   string
	Type   string
	Series []Series
}

// Gather snapshots every family, sorted by name with series sorted by
// label signature — the ordering is deterministic for a given contents.
func (r *Registry) Gather() []MetricFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]MetricFamily, 0, len(names))
	for _, n := range names {
		fam := r.fams[n]
		mf := MetricFamily{Name: fam.name, Help: fam.help, Type: fam.typ}
		keys := make([]string, 0, len(fam.series))
		for k := range fam.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := fam.series[k]
			gs := Series{Labels: append([]Label(nil), s.labels...)}
			switch {
			case s.c != nil:
				gs.Value = float64(s.c.Value())
			case s.g != nil:
				gs.Value = float64(s.g.Value())
			case s.f != nil:
				gs.Value = s.f.Value()
			case s.h != nil:
				snap := s.h.Snapshot()
				gs.Hist = &snap
			}
			mf.Series = append(mf.Series, gs)
		}
		out = append(out, mf)
	}
	r.mu.Unlock()
	return out
}

// Sum folds a counter or histogram family across all of its label sets:
// the total of the counters, or of the histograms' observation sums plus,
// as count, the number of observations. An absent family sums to zero.
func (r *Registry) Sum(name string) (sum float64, count int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.fams[name]
	if fam == nil {
		return 0, 0
	}
	for _, s := range fam.series {
		switch {
		case s.c != nil:
			sum += float64(s.c.Value())
		case s.h != nil:
			sum += math.Float64frombits(s.h.sumBits.Load())
			count += s.h.count.Load()
		}
	}
	return sum, count
}

// WritePrometheus renders the registry in Prometheus text exposition
// format 0.0.4. Output is deterministic: families sorted by name, series
// by label signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, mf := range r.Gather() {
		if mf.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", mf.Name, mf.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", mf.Name, mf.Type); err != nil {
			return err
		}
		for _, s := range mf.Series {
			if s.Hist != nil {
				if err := writeHistogram(w, mf.Name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", mf.Name, renderLabels(s.Labels), formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s Series) error {
	h := s.Hist
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		lbls := append(append([]Label(nil), s.Labels...), L("le", formatFloat(b)))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(lbls), cum); err != nil {
			return err
		}
	}
	lbls := append(append([]Label(nil), s.Labels...), L("le", "+Inf"))
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(lbls), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.Labels), formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.Labels), h.Count)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// labelKey renders a deterministic map key for a label set (keys sorted).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// Canonical tart metric names (shared by instrumentation and tooling).
const (
	MetricDelivered       = "tart_delivered_total"
	MetricOutOfOrder      = "tart_out_of_rt_order_total"
	MetricProbes          = "tart_probes_total"
	MetricSilences        = "tart_silences_total"
	MetricSent            = "tart_sent_total"
	MetricDuplicates      = "tart_duplicates_dropped_total"
	MetricPessimism       = "tart_pessimism_delay_seconds"
	MetricQueueDepth      = "tart_queue_depth"
	MetricCheckpoints     = "tart_checkpoints_total"
	MetricCheckpointBytes = "tart_checkpoint_bytes"
	MetricCheckpointHold  = "tart_checkpoint_hold_seconds"
	MetricCheckpointStore = "tart_checkpoint_store_seconds"
	MetricCheckpointChain = "tart_checkpoint_chain_length"
	MetricReplayRequests  = "tart_replay_requests_total"
	MetricReplayServes    = "tart_replay_serves_total"
	MetricFailovers       = "tart_failovers_total"
	MetricDetFaults       = "tart_determinism_faults_total"
	MetricSourceEmits     = "tart_source_emits_total"
	MetricPeerFrames      = "tart_peer_frames_total"
	MetricBlame           = "tart_pessimism_blame_total"
	MetricBlameSeconds    = "tart_pessimism_blame_seconds"
	MetricEstErr          = "tart_estimator_error_seconds"
	MetricHoldbackDepth   = "tart_holdback_depth"
	MetricHoldbackDrops   = "tart_holdback_dropped_total"
	MetricSilenceCoalesce = "tart_silences_coalesced_total"
	MetricCriticalPath    = "tart_critical_path_seconds"
	MetricFencedHellos    = "tart_fenced_hellos_total"
	// Adaptive span-sampling families (cluster controller, per-engine scrape).
	MetricSampleN      = "tart_span_sample_n"
	MetricSampleEpochs = "tart_span_sample_epochs_total"
	// SLO families (internal/slo tracker, appended to engine /metrics and
	// served by harness endpoints).
	MetricSLOLatency      = "tart_slo_latency_seconds"
	MetricSLOObservations = "tart_slo_observations_total"
	MetricSLOBreaches     = "tart_slo_breaches_total"
	MetricSLOOk           = "tart_slo_ok"
	MetricSLOBurn         = "tart_slo_error_budget_burn"
	// Supervisor-owned families (cluster failover supervisor, not per-engine).
	MetricSuspicions    = "tart_supervisor_suspicions_total"
	MetricSupFailovers  = "tart_supervisor_failovers_total"
	MetricTimeToRecover = "tart_time_to_recover_seconds"
	MetricChaosEvents   = "tart_chaos_events_total"
	// Rewind-distance bounds (time-travel inspector): the VT of the newest
	// checkpoint and how far the live clock has run past it.
	MetricCheckpointLastVT = "tart_checkpoint_last_vt"
	MetricCheckpointAgeVT  = "tart_checkpoint_age_vt"
	// Wire-level transport families (per-engine, observed on TCP
	// connections): bytes on the socket by direction, the scatter-gather
	// batch size distribution (frames coalesced into one writev), and
	// envelopes whose payload rode the self-describing gob fallback instead
	// of a registered binary codec.
	MetricTransportBytes  = "tart_transport_bytes_total"
	MetricFramesPerWritev = "tart_transport_frames_per_writev"
	MetricCodecFallbacks  = "tart_codec_fallbacks_total"
	// Adaptive-runtime families (cluster closed-loop controller): total
	// decisions by kind, estimator recalibrations pushed through the
	// determinism-fault path, the controller's live per-component residual
	// between measured compute wall time and the charged VT cost, and the
	// currently selected silence strategy per wire (value = strategy enum).
	MetricAdaptDecisions       = "tart_adapt_decisions_total"
	MetricAdaptRecalibrations  = "tart_adapt_recalibrations_total"
	MetricEstResidual          = "tart_estimator_residual_seconds"
	MetricAdaptSilenceStrategy = "tart_adapt_silence_strategy"
	// Cold-restart and rejoin-robustness families: redial attempts and the
	// per-peer dial circuit breaker (0 closed, 1 open, 2 half-open), WAL
	// records a cold start replayed from the durable suffix, durable
	// checkpoint-store write/fsync accounting, and inputs shed at sources
	// because the replay buffers hit their bound while a peer was down.
	MetricRedials           = "tart_redial_attempts_total"
	MetricDialBreaker       = "tart_dial_breaker_state"
	MetricColdstartReplayed = "tart_coldstart_replayed_records"
	MetricCkptStoreWrites   = "tart_ckpt_store_writes_total"
	MetricCkptStoreFsyncs   = "tart_ckpt_store_fsyncs_total"
	MetricSourceShed        = "tart_source_shed_total"
	// Stable-log families (file WAL group commit): records made durable by
	// kind, the fsyncs that covered them — fsyncs per record is the ratio —
	// and the distributions of one fsync's duration and one batch's size.
	MetricWALRecords      = "tart_wal_records_total"
	MetricWALFsyncs       = "tart_wal_fsyncs_total"
	MetricWALFsyncSeconds = "tart_wal_fsync_seconds"
	MetricWALBatchRecords = "tart_wal_batch_records"
)

// BatchRecordsBuckets spans 1 to 64 records per group-committed WAL batch.
var BatchRecordsBuckets = []float64{1, 2, 3, 4, 6, 8, 16, 32, 64}

// WALMetrics bundles the handles a file log's commit observer updates.
type WALMetrics struct {
	Inputs, Faults, Trims *Counter
	Fsyncs                *Counter
	FsyncSeconds          *Histogram
	BatchRecords          *Histogram
}

// WAL resolves the stable-log handles. Resolving them also seeds the
// families at zero, so they are scrapeable on engines whose log is in
// memory.
func (r *Registry) WAL() *WALMetrics {
	const recordsHelp = "Records made durable by the file WAL, by kind."
	return &WALMetrics{
		Inputs:       r.Counter(MetricWALRecords, recordsHelp, L("kind", "input")),
		Faults:       r.Counter(MetricWALRecords, recordsHelp, L("kind", "fault")),
		Trims:        r.Counter(MetricWALRecords, recordsHelp, L("kind", "trim")),
		Fsyncs:       r.Counter(MetricWALFsyncs, "fsync calls issued by the file WAL: one per committed batch."),
		FsyncSeconds: r.Histogram(MetricWALFsyncSeconds, "Duration of one file WAL fsync.", SecondsBuckets),
		BatchRecords: r.Histogram(MetricWALBatchRecords, "Records covered by one file WAL fsync.", BatchRecordsBuckets),
	}
}

// CheckpointMetrics bundles the handles an engine's soft checkpoint
// updates: how many it took and how large they were, by kind (full: every
// component shipped its whole state; delta: at least one shipped only its
// changes), how long each component's delivery loop was held quiescent,
// how long the work behind the loop's back took, and how long the chain a
// restore would fold has grown.
type CheckpointMetrics struct {
	full, delta           *Counter
	fullBytes, deltaBytes *Histogram
	hold, store           *Histogram
	chain                 *Gauge
}

// Checkpoint resolves the soft-checkpoint handles, seeding the families at
// zero.
func (r *Registry) Checkpoint() *CheckpointMetrics {
	const (
		countHelp = "Soft checkpoints applied to the backup, by kind."
		bytesHelp = "Encoded handler-state bytes per soft checkpoint, by kind."
	)
	full, delta := L("kind", "full"), L("kind", "delta")
	return &CheckpointMetrics{
		full:       r.Counter(MetricCheckpoints, countHelp, full),
		delta:      r.Counter(MetricCheckpoints, countHelp, delta),
		fullBytes:  r.Histogram(MetricCheckpointBytes, bytesHelp, BytesBuckets, full),
		deltaBytes: r.Histogram(MetricCheckpointBytes, bytesHelp, BytesBuckets, delta),
		hold: r.Histogram(MetricCheckpointHold,
			"Real time one component's delivery loop was held quiescent while a soft checkpoint staged its state.", SecondsBuckets),
		store: r.Histogram(MetricCheckpointStore,
			"Real time per soft checkpoint spent encoding state and applying it to the backup (fsyncs included), after the delivery loops were released.", SecondsBuckets),
		chain: r.Gauge(MetricCheckpointChain,
			"Checkpoints in the engine's current chain: the newest full one and the deltas applied since (bounded; a restore folds them all)."),
	}
}

// Held records how long one component's delivery loop was held for a
// checkpoint: once per component per checkpoint, the stall that loop sees.
func (m *CheckpointMetrics) Held(d time.Duration) { m.hold.Observe(d.Seconds()) }

// Applied records one checkpoint the backup accepted and the length of the
// chain it extended (1 when it started one).
func (m *CheckpointMetrics) Applied(full bool, chain, bytes int, offLoop time.Duration) {
	count, size := m.delta, m.deltaBytes
	if full {
		count, size = m.full, m.fullBytes
	}
	count.Inc()
	size.Observe(float64(bytes))
	m.store.Observe(offLoop.Seconds())
	m.chain.Set(int64(chain))
}

// InWireMetrics bundles the receiver-side per-wire handles a scheduler
// updates on its hot path. All fields are nil (valid no-ops) when resolved
// from a nil registry.
type InWireMetrics struct {
	Delivered  *Counter
	OutOfOrder *Counter
	Probes     *Counter
	Duplicates *Counter
	Pessimism  *Histogram
	QueueDepth *Gauge
	// Blame counts pessimism episodes where this wire's silence frontier
	// was the last holdout; BlameSeconds accumulates the real time those
	// episodes cost (paper §II.H attribution).
	Blame        *Counter
	BlameSeconds *Histogram
	// Holdback is the high-water count of envelopes ever parked behind a
	// sequence gap at once; HoldbackDrops counts arrivals shed because the
	// hold-back area was at its cap (recovered later via gap repair).
	Holdback      *Gauge
	HoldbackDrops *Counter
}

// InWire resolves the receiver-side handles for one (component, wire).
func (r *Registry) InWire(component, wire string) *InWireMetrics {
	lbls := []Label{L("component", component), L("wire", wire)}
	return &InWireMetrics{
		Delivered:     r.Counter(MetricDelivered, "Messages delivered to handlers.", lbls...),
		OutOfOrder:    r.Counter(MetricOutOfOrder, "Messages delivered in VT order that arrived out of real-time order.", lbls...),
		Probes:        r.Counter(MetricProbes, "Curiosity probes sent to the wire's sender.", lbls...),
		Duplicates:    r.Duplicates(component, wire),
		Pessimism:     r.Histogram(MetricPessimism, "Pessimism delay: real time spent holding a deliverable message awaiting other senders' silence.", SecondsBuckets, lbls...),
		QueueDepth:    r.Gauge(MetricQueueDepth, "Messages currently queued on the wire.", lbls...),
		Blame:         r.Counter(MetricBlame, "Pessimism episodes where this wire's silence frontier was the last holdout.", lbls...),
		BlameSeconds:  r.Histogram(MetricBlameSeconds, "Real time pessimism episodes blamed on this wire cost the receiver.", SecondsBuckets, lbls...),
		Holdback:      r.Gauge(MetricHoldbackDepth, "High-water count of envelopes parked behind a sequence gap at once.", lbls...),
		HoldbackDrops: r.Counter(MetricHoldbackDrops, "Arrivals shed because the hold-back area was at its cap.", lbls...),
	}
}

// OutWireMetrics bundles the sender-side per-wire handles.
type OutWireMetrics struct {
	Sent     *Counter
	Silences *Counter
}

// OutWire resolves the sender-side handles for one (component, wire).
func (r *Registry) OutWire(component, wire string) *OutWireMetrics {
	return &OutWireMetrics{
		Sent:     r.Counter(MetricSent, "Data, call, and reply envelopes emitted on the wire.", L("component", component), L("wire", wire)),
		Silences: r.Silences(component, wire),
	}
}

// Silences resolves the silence-promise counter for one sending (component,
// wire); a source's promises count under its own name.
func (r *Registry) Silences(component, wire string) *Counter {
	return r.Counter(MetricSilences, "Silence promises emitted on the wire.", L("component", component), L("wire", wire))
}

// Duplicates resolves the duplicate-discard counter for one (component,
// wire): an input wire's, or a call-reply wire's whose stale replies the
// caller drops.
func (r *Registry) Duplicates(component, wire string) *Counter {
	return r.Counter(MetricDuplicates, "Duplicate messages discarded by sequence/timestamp.", L("component", component), L("wire", wire))
}

// EstimatorError resolves the per-component signed estimator-error
// histogram (predicted cost minus measured handler duration, in seconds).
func (r *Registry) EstimatorError(component string) *Histogram {
	return r.Histogram(MetricEstErr, "Signed estimator error: predicted cost minus measured handler duration (negative = underestimate).", SignedSecondsBuckets, L("component", component))
}

// DeterminismFaults resolves the determinism-fault counter for one
// component and cause ("recalibration", "replay-divergence", or
// "checkpoint-chain").
func (r *Registry) DeterminismFaults(component, cause string) *Counter {
	return r.Counter(MetricDetFaults, "Determinism faults: estimator recalibrations and audit-chain divergences, by cause.", L("component", component), L("cause", cause))
}
