package load

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	tart "repro"
	"repro/internal/slo"
	"repro/internal/trace/span/otlp"
)

// collector is an httptest OTLP/HTTP endpoint that records every span ID
// it receives.
type collector struct {
	*httptest.Server
	mu       sync.Mutex
	received map[string]bool
}

func newCollector(t *testing.T) *collector {
	c := &collector{received: make(map[string]bool)}
	c.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []struct {
						SpanID string `json:"spanId"`
					} `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.NewDecoder(zr).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					c.received[sp.SpanID] = true
				}
			}
		}
	}))
	t.Cleanup(c.Close)
	return c
}

// requireHeldSpansReceived fails for every span the stopped cluster still
// holds that never reached the collector, and returns how many it holds.
func (c *collector) requireHeldSpansReceived(t *testing.T, cluster *tart.Cluster) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	held := 0
	for _, e := range cluster.Engines() {
		spans, err := cluster.Spans(e)
		if err != nil {
			t.Fatal(err)
		}
		held += len(spans)
		for _, sp := range spans {
			if !c.received[otlp.SpanID(sp)] {
				t.Errorf("%s: span %d (%s) held after Stop but never exported", e, sp.ID, sp.Phase)
			}
		}
	}
	if held == 0 {
		t.Fatal("no spans held after Stop")
	}
	return held
}

// TestRunShipsEverySpan runs the harness against an OTLP collector: every
// span the cluster still holds after Run (which stops it) reached the
// collector, the exporter's counters say so, and no exporter goroutine
// outlives Run. TestShipperStopShipsTheTail pins the drain after Stop,
// which this run's quiet wait before stopping leaves nothing to do.
func TestRunShipsEverySpan(t *testing.T) {
	col := newCollector(t)
	sc, err := Lookup("constant")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := slo.ParseObjectives("p99<2s")
	if err != nil {
		t.Fatal(err)
	}
	var cluster *tart.Cluster
	res, err := Run(Options{
		Scenario:    sc,
		Rate:        200,
		Duration:    time.Second, // two periodic drains
		Users:       1000,
		Engines:     2,
		Objectives:  obj,
		SpanSampleN: 1,
		OTLPURL:     col.URL,
		OnLaunch:    func(c *tart.Cluster) { cluster = c },
	})
	if err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		t.Fatal(err)
	}
	for _, g := range strings.Split(b.String(), "\n\n") {
		if strings.Contains(g, "otlp.(*Exporter)") {
			t.Errorf("exporter goroutine outlived Run:\n%s", g)
		}
	}

	held := col.requireHeldSpansReceived(t, cluster)
	if res.OTLP.Exported != uint64(held) || res.OTLP.Dropped != 0 || res.OTLP.Errors != 0 {
		t.Errorf("exporter stats %+v for %d held spans", res.OTLP, held)
	}
}

// TestShipperStopShipsTheTail drains one batch's spans, records a second
// batch, and stops the shipper: the second batch's spans reach the
// collector only through the drain after Stop.
func TestShipperStopShipsTheTail(t *testing.T) {
	col := newCollector(t)
	sc, err := Lookup("constant")
	if err != nil {
		t.Fatal(err)
	}
	registerReq()
	cluster, err := tart.Launch(buildApp(sc, 2), tart.WithSpanTracing(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	outputs := make(chan tart.Output, 64)
	if err := cluster.Sink("out", func(o tart.Output) { outputs <- o }); err != nil {
		t.Fatal(err)
	}
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	batch := func() {
		const n = 20
		for i := 0; i < n; i++ {
			if _, err := src.Emit(Req{Key: uint64(i), Sent: time.Now().UnixNano()}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			select {
			case <-outputs:
			case <-time.After(5 * time.Second):
				t.Fatal("outputs did not arrive")
			}
		}
	}

	ship := newSpanShipper(cluster, col.URL)
	defer ship.exp.Close()
	batch()
	ship.drain()
	drained := maps.Clone(ship.exported)
	batch()
	stats := ship.stop()

	held := col.requireHeldSpansReceived(t, cluster)
	tail := 0
	for _, e := range cluster.Engines() {
		spans, _ := cluster.Spans(e)
		for _, sp := range spans {
			if sp.ID > drained[e] {
				tail++
			}
		}
	}
	if tail == 0 {
		t.Fatal("the second batch recorded no span past the first drain")
	}
	if stats.Exported != uint64(held) || stats.Dropped != 0 || stats.Errors != 0 {
		t.Errorf("exporter stats %+v for %d held spans", stats, held)
	}
}
