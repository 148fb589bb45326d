package tart_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	tart "repro"
)

// saveSpanArtifacts registers a cleanup that, when the test fails and
// TART_ARTIFACT_DIR is set (CI exports it), dumps the engine's
// flight-recorder events and span buffer there so the workflow can upload
// them as debugging artifacts.
func saveSpanArtifacts(t *testing.T, cluster *tart.Cluster, engine string) {
	t.Cleanup(func() {
		dir := os.Getenv("TART_ARTIFACT_DIR")
		if dir == "" || !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		base := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+"-"+engine)
		if events, err := cluster.TraceEvents(engine, 0); err == nil && len(events) > 0 {
			if f, err := os.Create(base + "-flight.jsonl"); err == nil {
				enc := json.NewEncoder(f)
				for _, ev := range events {
					_ = enc.Encode(ev)
				}
				f.Close()
				t.Logf("flight events saved to %s-flight.jsonl", base)
			}
		}
		if spans, err := cluster.Spans(engine); err == nil && len(spans) > 0 {
			if f, err := os.Create(base + "-spans.json"); err == nil {
				enc := json.NewEncoder(f)
				enc.SetIndent("", " ")
				_ = enc.Encode(spans)
				f.Close()
				t.Logf("spans saved to %s-spans.json", base)
			}
		}
	})
}

// sleeper burns real wall-clock time in its handler so the compute phase
// dominates the traced end-to-end latency.
type sleeper struct{ d time.Duration }

func (s *sleeper) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	time.Sleep(s.d)
	return nil, ctx.Send("out", payload)
}

// TestSpanCriticalPathTilesEndToEnd is the tentpole's core promise: for a
// traced origin, the per-phase durations tile the span extent exactly
// (they sum to Total with no residue), and that extent accounts for the
// sink-measured end-to-end latency — the handler sleep dominates, so the
// untraced slack at the edges (Emit plumbing, sink callback) must be a
// small fraction.
func TestSpanCriticalPathTilesEndToEnd(t *testing.T) {
	const compute = 25 * time.Millisecond
	app := tart.NewApp()
	app.Register("worker", &sleeper{d: compute},
		tart.WithConstantCost(50*time.Microsecond))
	app.SourceInto("in", "worker", "in")
	app.SinkFrom("out", "worker", "out")
	app.PlaceAll("main")

	cluster, err := tart.Launch(app, tart.WithSpanTracing(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	saveSpanArtifacts(t, cluster, "main")

	done := make(chan time.Time, 1)
	if err := cluster.Sink("out", func(tart.Output) {
		select {
		case done <- time.Now():
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := src.Emit("payload"); err != nil {
		t.Fatal(err)
	}
	var e2e time.Duration
	select {
	case t1 := <-done:
		e2e = t1.Sub(t0)
	case <-time.After(10 * time.Second):
		t.Fatal("output never arrived")
	}

	// The sink callback runs within the handler's Send, so the compute span
	// closes, and is recorded, only after the sink has stamped t1: wait for
	// it.
	var spans []tart.Span
	for deadline := time.Now().Add(5 * time.Second); !hasComputeSpan(spans); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no compute span recorded (spans: %v)", spans)
		}
		if spans, err = cluster.Spans("main"); err != nil {
			t.Fatal(err)
		}
	}
	seen := time.Now() // every span read so far was recorded before this
	table := tart.CriticalPathTable(spans)
	if len(table) != 1 {
		t.Fatalf("got %d traced origins, want 1 (spans: %v)", len(table), spans)
	}
	b := table[0]
	if b.Spans < 2 {
		t.Fatalf("only %d spans for the origin; want at least queueing+compute", b.Spans)
	}

	// Exact tiling: the analyzer attributes every nanosecond of the span
	// extent to exactly one phase.
	var sum time.Duration
	for _, d := range b.ByPhase {
		sum += d
	}
	if sum != b.Total {
		t.Fatalf("phase sum %v != total %v — attribution must tile exactly", sum, b.Total)
	}

	if got := b.ByPhase[tart.PhaseCompute]; got < compute {
		t.Errorf("compute phase %v < handler sleep %v", got, compute)
	}
	// The traced extent starts inside the emit→sink window, and the sleep
	// dominates both, so they agree closely. It need not end inside it: the
	// compute span closes after t1. It does end before the spans were read.
	if b.Start.Before(t0) {
		t.Errorf("span extent starts at %v, before the emit at %v", b.Start, t0)
	}
	if b.End.After(seen) {
		t.Errorf("span extent ends at %v, after the spans were read at %v", b.End, seen)
	}
	if ratio := float64(b.Total) / float64(e2e); ratio < 0.90 {
		t.Errorf("span total %v covers only %.1f%% of measured end-to-end %v", b.Total, 100*ratio, e2e)
	} else {
		t.Logf("end-to-end %v, span total %v (%.2f%% accounted)", e2e, b.Total, 100*float64(b.Total)/float64(e2e))
	}
}

func hasComputeSpan(spans []tart.Span) bool {
	for _, sp := range spans {
		if sp.Phase == tart.PhaseCompute {
			return true
		}
	}
	return false
}

// TestSpanPessimismSeparatelyAttributed arranges a genuine pessimism stall
// at the merger — one source's message waits on the other source's silence
// — and checks the wait lands in the pessimism phase, separate from
// queueing, while the tiling stays exact.
func TestSpanPessimismSeparatelyAttributed(t *testing.T) {
	out := newOutputs()
	cluster, err := tart.Launch(fig1App(),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithSpanTracing(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	saveSpanArtifacts(t, cluster, "main")
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")

	// The in1 message reaches the merger quickly, then stalls: the merge
	// rule cannot release it until in2's watermark passes its VT, which
	// only happens after the real-time sleep below.
	const stall = 10 * time.Millisecond
	if err := in1.EmitAt(1_000_000, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(stall)
	if err := in2.Quiesce(2_000_000); err != nil {
		t.Fatal(err)
	}
	if err := in1.Quiesce(2_000_000); err != nil {
		t.Fatal(err)
	}
	out.await(t, 1)

	spans, err := cluster.Spans("main")
	if err != nil {
		t.Fatal(err)
	}
	table := tart.CriticalPathTable(spans)
	if len(table) == 0 {
		t.Fatal("no traced origins")
	}
	b := table[0] // the lone in1 input
	var sum time.Duration
	for _, d := range b.ByPhase {
		sum += d
	}
	if sum != b.Total {
		t.Fatalf("phase sum %v != total %v", sum, b.Total)
	}
	pess := b.ByPhase[tart.PhasePessimism]
	if pess < stall/2 {
		t.Fatalf("pessimism phase %v does not reflect the %v merge stall (breakdown %+v)", pess, stall, b.ByPhase)
	}
	if q := b.ByPhase[tart.PhaseQueueing]; q >= pess {
		t.Errorf("queueing %v >= pessimism %v: the stall must be attributed to pessimism, not queueing", q, pess)
	}
	t.Logf("stall %v attributed: pessimism=%v queueing=%v compute=%v",
		stall, pess, b.ByPhase[tart.PhaseQueueing], b.ByPhase[tart.PhaseCompute])
}

// TestFailoverReplayedSpansAndCausalChain drives the checkpoint → crash →
// replica-activation cycle with span tracing on and verifies the two
// recovery-facing observability claims: (1) replayed deliveries re-emit
// spans tagged replayed=true, only for the post-checkpoint suffix; (2) the
// causal chain reconstructed from the post-failover flight dump still
// covers the pre-crash hops of a replayed origin and shows the replay
// re-delivery beside them.
func TestFailoverReplayedSpansAndCausalChain(t *testing.T) {
	dir := t.TempDir()
	app := tart.NewApp()
	app.Register("count", newCounter(), tart.WithConstantCost(50*time.Microsecond))
	app.Register("relay", &totaler{}, tart.WithConstantCost(20*time.Microsecond))
	app.SourceInto("in", "count", "in")
	app.Connect("count", "out", "relay", "s")
	app.SinkFrom("out", "relay", "out")
	app.PlaceAll("node")

	out := newOutputs()
	cluster, err := tart.Launch(app,
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithFlightRecorder(dir),
		tart.WithSpanTracing(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	saveSpanArtifacts(t, cluster, "node")
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	src, _ := cluster.Source("in")
	for i := 1; i <= 3; i++ {
		if err := src.EmitAt(tart.VirtualTime(i*1_000_000), []string{"w"}); err != nil {
			t.Fatal(err)
		}
	}
	out.await(t, 3)
	if _, err := cluster.Checkpoint("node"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		if err := src.EmitAt(tart.VirtualTime(i*1_000_000), []string{"w"}); err != nil {
			t.Fatal(err)
		}
	}
	out.await(t, 6)

	// No spans are replayed before the crash.
	spans, err := cluster.Spans("node")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Replayed {
			t.Fatalf("span tagged replayed before any failover: %+v", s)
		}
	}

	if err := cluster.Fail("node"); err != nil {
		t.Fatal(err)
	}
	out2 := newOutputs()
	if err := cluster.Sink("out", out2.fn); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("node"); err != nil {
		t.Fatal(err)
	}
	out2.await(t, 3) // the regenerated post-checkpoint suffix
	time.Sleep(100 * time.Millisecond)

	spans, err = cluster.Spans("node")
	if err != nil {
		t.Fatal(err)
	}
	replayedOrigins := map[tart.OriginID]bool{}
	for _, s := range spans {
		if s.Replayed {
			replayedOrigins[s.Origin] = true
		}
	}
	if len(replayedOrigins) == 0 {
		t.Fatal("failover replay produced no replayed=true spans")
	}
	for o := range replayedOrigins {
		if o.Seq() < 4 {
			t.Errorf("origin %v (covered by the checkpoint) has replayed spans", o)
		}
	}
	// The analyzer surfaces the recovery cost as the replay phase.
	table := tart.CriticalPathTable(spans)
	var sawReplayPhase bool
	for _, b := range table {
		if b.Replayed && b.ByPhase[tart.PhaseReplay] > 0 {
			sawReplayPhase = true
		}
		var sum time.Duration
		for _, d := range b.ByPhase {
			sum += d
		}
		if sum != b.Total {
			t.Errorf("origin %v: phase sum %v != total %v", b.Origin, sum, b.Total)
		}
	}
	if !sawReplayPhase {
		t.Error("no replayed origin carries replay-phase time in its breakdown")
	}

	// The post-failover dump must still tell the whole story of a replayed
	// origin: its pre-crash source emission and hops, plus the re-delivery.
	// Stop first (idempotent) so the shutdown dump includes the replayed
	// deliveries that landed after the recovery-time dump was written.
	cluster.Stop()
	f, err := os.Open(filepath.Join(dir, "node-flight.jsonl"))
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	defer f.Close()
	var dump []tart.TraceEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev tart.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad dump line %q: %v", sc.Text(), err)
		}
		dump = append(dump, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var origin tart.OriginID
	for o := range replayedOrigins {
		if origin == 0 || o < origin {
			origin = o
		}
	}
	chain := tart.CausalChain(dump, origin)
	if len(chain) == 0 {
		t.Fatalf("post-failover dump has no causal chain for replayed origin %v", origin)
	}
	var emits int
	delivers := map[string]int{} // component+VT -> count
	for _, ev := range chain {
		switch ev.Kind {
		case tart.EvSourceEmit:
			emits++
		case tart.EvDeliver:
			delivers[ev.Component+"@"+ev.VT.String()]++
		}
	}
	if emits == 0 {
		t.Errorf("chain for %v lost the pre-crash source emission", origin)
	}
	var stutter int
	for _, n := range delivers {
		if n > 1 {
			stutter++
		}
	}
	if stutter == 0 {
		t.Errorf("chain for %v shows no replay re-delivery (deliveries: %v)", origin, delivers)
	}
}

// TestSpansEndpointAndNoPprof exercises /spans in both formats with origin
// filtering and its 404 when tracing is off, and checks that no debug
// listener serves /debug/pprof/, traced or not.
func TestSpansEndpointAndNoPprof(t *testing.T) {
	out := newOutputs()
	cluster, err := tart.Launch(fig1App(),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithSpanTracing(1),
		tart.WithDebugHTTP(map[string]string{"main": "127.0.0.1:0"}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	for i := 1; i <= 2; i++ {
		if err := in1.EmitAt(tart.VirtualTime(i*1_000_000), []string{"x"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(tart.VirtualTime(i*1_000_000+400_000), []string{"z"}); err != nil {
			t.Fatal(err)
		}
	}
	in1.Quiesce(3_000_000)
	in2.Quiesce(3_000_000)
	out.await(t, 4)

	addr, err := cluster.DebugAddr("main")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (string, int) {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(body), resp.StatusCode
	}

	body, code := get("/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans status = %d", code)
	}
	var spans []tart.Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/spans decode: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("/spans returned no spans for a traced run")
	}
	origin := spans[0].Origin

	filtered, code := get("/spans?origin=" + url.QueryEscape(origin.String()))
	if code != http.StatusOK {
		t.Fatalf("/spans?origin status = %d", code)
	}
	var got []tart.Span
	if err := json.Unmarshal([]byte(filtered), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatalf("origin filter %v returned nothing", origin)
	}
	for _, s := range got {
		if s.Origin != origin {
			t.Fatalf("origin filter leaked span for %v", s.Origin)
		}
	}

	if _, code := get("/spans?origin=not-an-origin"); code != http.StatusBadRequest {
		t.Errorf("bad origin filter status = %d, want 400", code)
	}

	chrome, code := get("/spans?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("/spans?format=chrome status = %d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome export has no events")
	}

	// Sampled spans feed the critical-path histogram family.
	metrics, code := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(metrics, "tart_critical_path_seconds") {
		t.Error("/metrics missing tart_critical_path_seconds")
	}

	if _, code := get("/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ status = %d, want 404", code)
	}

	// A cluster without span tracing serves neither surface.
	plain, err := tart.Launch(fig1App("bare"),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithDebugHTTP(map[string]string{"bare": "127.0.0.1:0"}))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Stop()
	bareAddr, err := plain.DebugAddr("bare")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/spans", "/debug/pprof/"} {
		resp, err := client.Get("http://" + bareAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d untraced, want 404", path, resp.StatusCode)
		}
	}
}
