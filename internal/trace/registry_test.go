package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry(L("engine", "test"))
	c := r.Counter("tart_test_total", "help", L("wire", "w1"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	// Same name+labels resolves to the same underlying series.
	again := r.Counter("tart_test_total", "help", L("wire", "w1"))
	again.Inc()
	if c.Value() != 4 {
		t.Errorf("re-resolved counter not shared: %d", c.Value())
	}
	// A gauge is a collector: each gather reads the value it stands for.
	depth := 7
	r.Collect("tart_test_depth", "help", "gauge", func(emit Emit) {
		emit(float64(depth), L("wire", "w1"))
		emit(0, L("wire", "w0"))
	})
	r.Collect("tart_test_idle", "help", "gauge", func(Emit) {})
	gauge := func() []Series {
		for _, f := range r.Gather() {
			if f.Name == "tart_test_idle" {
				t.Error("a collector that emits nothing still rendered its family")
			}
			if f.Name == "tart_test_depth" {
				if f.Type != "gauge" {
					t.Errorf("collector family type = %q", f.Type)
				}
				return f.Series
			}
		}
		t.Fatal("collector family missing")
		return nil
	}
	if s := gauge(); len(s) != 2 || s[0].Get("wire") != "w0" || s[1].Value != 7 || s[1].Get("engine") != "test" {
		t.Errorf("gauge series = %+v, want w0 then w1=7 under the const label", s)
	}
	depth = 3
	if s := gauge(); s[1].Value != 3 {
		t.Errorf("gauge = %v after the value moved, want 3", s[1].Value)
	}
}

// TestCollectorRunsOutsideLock: Gather releases the registry lock before it
// runs collectors, so a collector may take locks that are held while
// handles are resolved — here, resolving a handle itself.
func TestCollectorRunsOutsideLock(t *testing.T) {
	r := NewRegistry()
	r.Collect("tart_inner", "help", "counter", func(emit Emit) {
		emit(float64(r.Counter("tart_other_total", "help").Value()))
	})
	done := make(chan []MetricFamily)
	go func() { done <- r.Gather() }()
	select {
	case fams := <-done:
		if len(fams) != 1 || fams[0].Name != "tart_inner" {
			t.Errorf("gathered %+v", fams)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Gather deadlocked running a collector")
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	c.Inc() // must not panic
	r.Collect("x", "", "gauge", func(Emit) { t.Error("nil registry ran a collector") })
	r.Histogram("x_h", "", SecondsBuckets).Observe(0.5)
	if got := r.Gather(); got != nil {
		t.Errorf("nil registry Gather = %v", got)
	}
	var m Metrics // no registry, recorder or collector: every report is inert
	in, out := m.Wire("c", "w", 0, true), m.Wire("c", "w", 1, false)
	m.Delivered(in, in, msg.Envelope{}, 0, time.Second, true)
	m.Sent(out, msg.Envelope{}, "")
	var rec *Recorder
	rec.Record(Event{Kind: EvDeliver})
	if rec.Total() != 0 || rec.Last(5) != nil {
		t.Error("nil recorder not inert")
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantCounts := []uint64{1, 2, 1, 1} // (≤0.1], (0.1,1], (1,10], +Inf
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("bucket count = %d", len(s.Counts))
	}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Sum != 56.05 {
		t.Errorf("sum = %v", s.Sum)
	}
}

// TestWritePrometheusDeterministic pins the exposition format: families
// sorted by name, series by label signature, histograms rendered with
// cumulative buckets and _sum/_count. Two registries populated in opposite
// orders must render identically.
func TestWritePrometheusDeterministic(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := NewRegistry(L("engine", "E"))
		ops := []func(){
			func() { r.Counter("tart_b_total", "b help", L("wire", "w1")).Add(2) },
			func() { r.Counter("tart_b_total", "b help", L("wire", "w0")).Add(1) },
			func() { r.Counter("tart_a_total", "a help").Add(5) },
			func() {
				h := r.Histogram("tart_h_seconds", "h help", []float64{0.5, 1})
				h.Observe(0.25)
				h.Observe(0.75)
			},
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return r
	}
	var fwd, rev strings.Builder
	if err := build(false).WritePrometheus(&fwd); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WritePrometheus(&rev); err != nil {
		t.Fatal(err)
	}
	if fwd.String() != rev.String() {
		t.Errorf("rendering depends on creation order:\n%s\nvs\n%s", fwd.String(), rev.String())
	}
	text := fwd.String()
	for _, want := range []string{
		`# TYPE tart_a_total counter`,
		`tart_a_total{engine="E"} 5`,
		`tart_b_total{engine="E",wire="w0"} 1`,
		`tart_b_total{engine="E",wire="w1"} 2`,
		`# TYPE tart_h_seconds histogram`,
		`tart_h_seconds_bucket{engine="E",le="0.5"} 1`,
		`tart_h_seconds_bucket{engine="E",le="1"} 2`,
		`tart_h_seconds_bucket{engine="E",le="+Inf"} 2`,
		`tart_h_seconds_sum{engine="E"} 1`,
		`tart_h_seconds_count{engine="E"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
	// a sorts before b: family order is by name.
	if strings.Index(text, "tart_a_total") > strings.Index(text, "tart_b_total") {
		t.Error("families not sorted by name")
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("tart_esc_total", "", L("note", `quote " slash \ newline`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `tart_esc_total{note="quote \" slash \\ newline\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaping wrong:\n%s\nwant %s", b.String(), want)
	}
}

// TestRegistryConcurrent hammers counters, histograms, and Gather from
// parallel goroutines; run under -race this is the registry's data-race
// regression test.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("tart_conc_total", "")
			h := r.Histogram("tart_conc_seconds", "", SecondsBuckets)
			for j := 0; j < per; j++ {
				c.Inc()
				h.Observe(float64(j%100) / 1000)
				if j%200 == 0 {
					_ = r.Gather()
				}
			}
		}(i)
	}
	wg.Wait()
	fams := r.Gather()
	var total float64
	var hcount uint64
	for _, f := range fams {
		for _, s := range f.Series {
			switch f.Name {
			case "tart_conc_total":
				total = s.Value
			case "tart_conc_seconds":
				hcount = s.Hist.Count
			}
		}
	}
	if total != workers*per {
		t.Errorf("counter = %v, want %d", total, workers*per)
	}
	if hcount != workers*per {
		t.Errorf("histogram count = %d, want %d", hcount, workers*per)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 6; i++ {
		r.Record(Event{Kind: EvDeliver, MsgSeq: uint64(i)})
	}
	if r.Total() != 6 || len(r.Events()) != 4 {
		t.Errorf("total/len = %d/%d", r.Total(), len(r.Events()))
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := uint64(i + 3); ev.Seq != want || ev.MsgSeq != want {
			t.Errorf("event[%d] = seq %d msgSeq %d, want %d", i, ev.Seq, ev.MsgSeq, want)
		}
	}
	last := r.Last(2)
	if len(last) != 2 || last[1].Seq != 6 {
		t.Errorf("Last(2) = %+v", last)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r.Record(Event{Kind: EvDeliver})
				if j%100 == 0 {
					_ = r.Last(16)
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != workers*per {
		t.Errorf("total = %d, want %d", r.Total(), workers*per)
	}
	if got := len(r.Events()); got != 128 {
		t.Errorf("len = %d, want 128", got)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Event{Kind: EvCheckpoint, VT: 12345, Component: "c", Wire: 3, MsgSeq: 2, Note: "n"})
	var b strings.Builder
	if err := r.WriteDump(&b, "e"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	line := lines[len(lines)-1] // the event, after the dump header
	if !strings.Contains(line, `"kind":"checkpoint"`) {
		t.Errorf("dump line = %s", line)
	}
	var back Event
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != EvCheckpoint || back.VT != 12345 || back.Component != "c" ||
		back.Wire != 3 || back.MsgSeq != 2 || back.Note != "n" {
		t.Errorf("round trip = %+v", back)
	}
	var bad EventKind
	if err := bad.UnmarshalJSON([]byte(`"no-such-kind"`)); err == nil {
		t.Error("unknown kind accepted")
	}
}
