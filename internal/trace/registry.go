// Labeled metrics registry: per-component and per-wire counters and
// fixed-bucket histograms that the runtime pushes into, beside collector
// families read at gather time, with a deterministic Prometheus text
// rendering (exposition format 0.0.4, stdlib only).
//
// Pushed handles (*Counter, *Histogram) are resolved once — typically at
// scheduler/engine construction — and updated with plain atomics, so the
// hot path pays no map lookups and no locks. All handle methods are
// nil-receiver safe: code instrumented against a disabled registry keeps
// working at zero cost. A value the runtime already holds (a queue depth, a
// breaker position, a count kept beside other state) is not pushed at all:
// a collector reads it when something gathers.
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
	h      *Histogram
}

type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	series  map[string]*series
	collect func(Emit) // a collector family's reader; nil when pushed
}

// Emit adds one series of value v to the family a collector is gathering.
type Emit func(v float64, labels ...Label)

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

func (r *Registry) seriesFor(name, help, typ string, bounds []float64, labels []Label) *series {
	fam, ok := r.fams[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = fam
	}
	key := labelKey(labels)
	s, ok := fam.series[key]
	if !ok {
		s = &series{labels: r.withConsts(labels)}
		if typ == "counter" {
			s.c = &Counter{}
		} else {
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

// Collect registers a collector family of type typ ("counter" or "gauge"):
// each Gather calls read, outside the registry lock, and every emit adds one
// series. A collector may therefore take the locks of the state it reads.
// A family whose collector emits nothing is left out of the gather.
func (r *Registry) Collect(name, help, typ string, read func(Emit)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fams[name] = &family{name: name, help: help, typ: typ, collect: read}
}

// withConsts prefixes a series' labels with the registry's const labels.
func (r *Registry) withConsts(labels []Label) []Label {
	all := make([]Label, 0, len(r.consts)+len(labels))
	all = append(all, r.consts...)
	return append(all, labels...)
}

// Gather snapshots every family, sorted by name with series sorted by
// label signature — the ordering is deterministic for a given contents.
// Pushed families are read under the registry lock, collector families
// after it is released.
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
	var collect []func(Emit) // parallel to out: a collector family's reader
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
			if s.c != nil {
				gs.Value = float64(s.c.Value())
			} else {
				snap := s.h.Snapshot()
				gs.Hist = &snap
			}
			mf.Series = append(mf.Series, gs)
		}
		out = append(out, mf)
		collect = append(collect, fam.collect)
	}
	r.mu.Unlock()
	kept := out[:0]
	for i, mf := range out {
		if read := collect[i]; read != nil {
			mf.Series = r.collected(read)
		}
		if len(mf.Series) > 0 {
			kept = append(kept, mf)
		}
	}
	return kept
}

// collected runs one collector and sorts its series by label signature.
func (r *Registry) collected(read func(Emit)) []Series {
	type keyed struct {
		key string
		s   Series
	}
	var got []keyed
	read(func(v float64, labels ...Label) {
		got = append(got, keyed{labelKey(labels), Series{Labels: r.withConsts(labels), Value: v}})
	})
	sort.Slice(got, func(i, j int) bool { return got[i].key < got[j].key })
	out := make([]Series, len(got))
	for i := range got {
		out[i] = got[i].s
	}
	return out
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
	MetricHoldbackDrops   = "tart_holdback_dropped_total"
	MetricSilenceCoalesce = "tart_silences_coalesced_total"
	MetricCriticalPath    = "tart_critical_path_seconds"
	MetricFencedHellos    = "tart_fenced_hellos_total"
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
