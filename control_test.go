package tart_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	tart "repro"
	"repro/internal/trace/span/otlp"
)

// controlPlaneOptions turns on every control-plane loop: the supervisor,
// the adaptive runtime with a span budget and the OTLP drain.
func controlPlaneOptions(otlpURL string) []tart.ClusterOption {
	return []tart.ClusterOption{
		tart.WithSpanTracing(1),
		tart.WithSupervisor(tart.SupervisorConfig{SuspectAfter: time.Hour, PollEvery: 5 * time.Millisecond}),
		tart.WithAdaptiveRuntime(tart.AdaptiveRuntime{PollEvery: 5 * time.Millisecond, SpansPerSec: 1e6}),
		tart.WithOTLPExport(otlpURL),
	}
}

// controlPlaneStacks returns the goroutines of the goroutine profile that
// run cluster control-plane code or the OTLP exporter.
func controlPlaneStacks(t *testing.T) []string {
	t.Helper()
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, g := range strings.Split(b.String(), "\n\n") {
		for _, frame := range []string{"repro.(*Cluster)", "repro.(*supervisor)", "otlp.(*Exporter)"} {
			if strings.Contains(g, frame) {
				found = append(found, g)
				break
			}
		}
	}
	return found
}

// requireControlPlaneGone waits briefly for exiting goroutines to unwind,
// then fails if any control-plane goroutine is still alive.
func requireControlPlaneGone(t *testing.T, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		stacks := controlPlaneStacks(t)
		if len(stacks) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d control-plane goroutines still running:\n%s", when, len(stacks), strings.Join(stacks, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopStopsControlPlane launches with every control-plane loop on and
// checks that Stop ends all of them, drains every retained span to the
// OTLP collector first, and is a no-op when repeated — and that a Launch
// that fails halfway leaves no loop behind either.
func TestStopStopsControlPlane(t *testing.T) {
	var mu sync.Mutex
	received := make(map[string]bool)
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
		mu.Lock()
		defer mu.Unlock()
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					received[sp.SpanID] = true
				}
			}
		}
	}))
	defer collector.Close()

	app := tart.NewApp()
	app.Register("echo", &auditEcho{}, tart.WithConstantCost(time.Microsecond))
	app.SourceInto("in", "echo", "in")
	app.SinkFrom("out", "echo", "out")
	app.PlaceAll("main")
	cluster, err := tart.Launch(app, controlPlaneOptions(collector.URL)...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	outputs := make(chan tart.Output, 100)
	if err := cluster.Sink("out", func(o tart.Output) { outputs <- o }); err != nil {
		t.Fatal(err)
	}
	emitAll := func() {
		for i := 0; i < 50; i++ {
			if _, err := src.Emit(i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			select {
			case <-outputs:
			case <-time.After(5 * time.Second):
				t.Fatal("outputs did not arrive")
			}
		}
	}
	emitAll()
	// Wait until the periodic OTLP drain has run, then leave a second
	// batch's spans for Stop's final drain.
	for deadline := time.Now().Add(5 * time.Second); cluster.OTLPStats().Enqueued == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("control loops idle: otlp %+v", cluster.OTLPStats())
		}
	}
	emitAll()

	cluster.Stop()
	requireControlPlaneGone(t, "after Stop")
	spans, err := cluster.Spans("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans retained")
	}
	mu.Lock()
	for _, sp := range spans {
		if !received[otlp.SpanID(sp)] {
			t.Errorf("span %d (%s) retained but never exported", sp.ID, sp.Phase)
		}
	}
	mu.Unlock()
	cluster.Stop() // a second Stop is a no-op

	// A Launch that fails after starting one engine stops it again itself
	// and never starts the control plane. The squatter on the second
	// engine's address holds every dial open and never answers, so if the
	// first engine started, its dialer waits on a handshake Stop must bound.
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	held := make(chan net.Conn, 16) // room for the failed Launch's dial and any redial
	go func() {
		for {
			c, err := busy.Accept()
			if err != nil {
				return
			}
			held <- c
		}
	}()
	defer func() {
		for len(held) > 0 {
			(<-held).Close()
		}
	}()
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	freeAddr := free.Addr().String()
	free.Close()
	two := tart.NewApp()
	two.Register("a", &auditEcho{}, tart.WithConstantCost(time.Microsecond))
	two.Register("b", &auditEcho{}, tart.WithConstantCost(time.Microsecond))
	two.SourceInto("in", "a", "in")
	two.Connect("a", "out", "b", "in")
	two.SinkFrom("out", "b", "out")
	two.Place("a", "ea")
	two.Place("b", "eb")
	opts := append(controlPlaneOptions(collector.URL),
		tart.WithTCP(map[string]string{"ea": freeAddr, "eb": busy.Addr().String()}))
	if _, err := tart.Launch(two, opts...); err == nil {
		t.Fatal("Launch on an address already in use succeeded")
	}
	requireControlPlaneGone(t, "after a failed Launch")
}

// TestSLODegradationHoldsAgainstSpanBudget runs the span budget and SLO
// burn together under traffic far below the budget, so the budget alone
// wants to trace every origin. Once SLO burn degrades sampling, the budget
// may not undo it on a later poll: the newest modulus stays at or above
// the degraded floor for as long as the burn lasts.
func TestSLODegradationHoldsAgainstSpanBudget(t *testing.T) {
	const (
		degradedN = 64 // the controller's degraded floor
		poll      = 20 * time.Millisecond
	)
	app := tart.NewApp()
	app.Register("echo", &auditEcho{}, tart.WithConstantCost(time.Microsecond))
	app.SourceInto("in", "echo", "in")
	app.SinkFrom("out", "echo", "out")
	app.PlaceAll("main")
	tracker := tart.NewSLOTracker(mustObjectives(t, "p99<1s"),
		&tart.SLOBudgetPolicy{Threshold: time.Millisecond, Budget: 0.01, Window: 10 * time.Second})
	quantum := tart.Ticks(time.Millisecond)
	cluster, err := tart.Launch(app,
		tart.WithSLO(tracker),
		tart.WithSpanTracing(1),
		tart.WithAdaptiveRuntime(tart.AdaptiveRuntime{PollEvery: poll, Quantum: quantum, SpansPerSec: 1e6}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", func(tart.Output) {}); err != nil {
		t.Fatal(err)
	}
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	newestN := func() uint64 {
		epochs := cluster.SampleEpochs()
		return epochs[len(epochs)-1].N
	}
	// trickle emits a message every few milliseconds for d (about 200
	// deliveries/s against a budget of a million spans/s) while burning the
	// error budget, calling check after each emit.
	trickle := func(d time.Duration, check func() bool) bool {
		for end := time.Now().Add(d); time.Now().Before(end); {
			if _, err := src.Emit("x"); err != nil {
				t.Fatal(err)
			}
			tracker.Observe("e2e", 50*time.Millisecond)
			if check() {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	if !trickle(5*time.Second, func() bool { return newestN() == degradedN }) {
		t.Fatalf("sampling never degraded: epochs %+v, decisions %v", cluster.SampleEpochs(), cluster.AdaptStatus().Decisions)
	}
	trickle(8*poll, func() bool {
		if n := newestN(); n < degradedN {
			t.Fatalf("span budget undid the degradation: newest modulus 1/%d < 1/%d; epochs %+v",
				n, degradedN, cluster.SampleEpochs())
		}
		return false
	})
	if !cluster.AdaptStatus().Degraded {
		t.Fatal("burn stopped degrading sampling before the check ended")
	}
}
