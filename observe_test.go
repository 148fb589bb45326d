package tart_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	tart "repro"
)

// deterministicRun drives the Figure-1 app with a manual clock and a fixed
// input schedule, returning the engine's retained flight-recorder events.
func deterministicRun(t *testing.T) []tart.TraceEvent {
	t.Helper()
	out := newOutputs()
	cluster, err := tart.Launch(fig1App(),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithFlightRecorder(""))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	for i := 1; i <= 4; i++ {
		if err := in1.EmitAt(tart.VirtualTime(i*1_000_000), []string{"x", "y"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(tart.VirtualTime(i*1_000_000+400_000), []string{"z"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in1.Quiesce(5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := in2.Quiesce(5_000_000); err != nil {
		t.Fatal(err)
	}
	out.await(t, 8)
	events, err := cluster.TraceEvents("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// vtSignature projects the deterministic coordinates of message-flow
// events: per-component subsequences of (Kind, Component, Wire, VT,
// MsgSeq) for delivers and sends. RT and recorder Seq depend on thread
// interleaving and are excluded; so is the interleaving ACROSS components,
// which is why the projection groups by component.
type sigEvent struct {
	Kind      tart.TraceEventKind
	Component string
	Wire      string
	VT        tart.VirtualTime
	MsgSeq    uint64
}

func vtSignature(events []tart.TraceEvent) map[string][]sigEvent {
	sig := make(map[string][]sigEvent)
	for _, ev := range events {
		if ev.Kind != tart.EvDeliver && ev.Kind != tart.EvSend {
			continue
		}
		sig[ev.Component] = append(sig[ev.Component], sigEvent{
			Kind: ev.Kind, Component: ev.Component, Wire: ev.Wire.String(),
			VT: ev.VT, MsgSeq: ev.MsgSeq,
		})
	}
	return sig
}

// TestFlightRecorderVTDeterminism runs the identical deterministic
// workload twice and requires identical per-component virtual-time event
// sequences — the flight-recorder statement of the paper's determinism
// invariant.
func TestFlightRecorderVTDeterminism(t *testing.T) {
	a := vtSignature(deterministicRun(t))
	b := vtSignature(deterministicRun(t))
	if len(a) == 0 {
		t.Fatal("no deliver/send events recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("VT event sequences differ between identical runs:\nrun1 %+v\nrun2 %+v", a, b)
	}
	// Sanity: the merger must have delivered all 8 messages in VT order.
	var mergerDelivers []sigEvent
	for _, ev := range a["merger"] {
		if ev.Kind == tart.EvDeliver {
			mergerDelivers = append(mergerDelivers, ev)
		}
	}
	if len(mergerDelivers) != 8 {
		t.Fatalf("merger delivers = %d, want 8", len(mergerDelivers))
	}
	for i := 1; i < len(mergerDelivers); i++ {
		if mergerDelivers[i].VT < mergerDelivers[i-1].VT {
			t.Errorf("merger delivery VTs not monotone at %d: %v < %v",
				i, mergerDelivers[i].VT, mergerDelivers[i-1].VT)
		}
	}
}

// TestDebugHTTPEndpoints exercises the ops surface end to end on an
// ephemeral loopback port: /metrics (Prometheus text with per-wire
// series), /healthz, /trace, and /topology.
func TestDebugHTTPEndpoints(t *testing.T) {
	out := newOutputs()
	cluster, err := tart.Launch(fig1App(),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithFlightRecorder(""),
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
	if addr == "" {
		t.Fatal("no debug address")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (string, *http.Response) {
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
		return string(body), resp
	}

	metrics, resp := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE " + "tart_delivered_total counter",
		`tart_delivered_total{engine="main",component="merger"`,
		"# TYPE " + "tart_pessimism_delay_seconds histogram",
		"tart_probes_total",
		"tart_sent_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	health, resp := get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Engine     string   `json:"engine"`
		Healthy    bool     `json:"healthy"`
		Components []string `json:"components"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("/healthz decode: %v", err)
	}
	if h.Engine != "main" || !h.Healthy {
		t.Errorf("/healthz = %+v", h)
	}
	if !reflect.DeepEqual(h.Components, []string{"merger", "sender1", "sender2"}) {
		t.Errorf("/healthz components = %v", h.Components)
	}

	traceBody, _ := get("/trace?last=10")
	var events []tart.TraceEvent
	if err := json.Unmarshal([]byte(traceBody), &events); err != nil {
		t.Fatalf("/trace decode: %v", err)
	}
	if len(events) == 0 || len(events) > 10 {
		t.Errorf("/trace returned %d events", len(events))
	}

	topoBody, _ := get("/topology")
	var topo struct {
		Engine string `json:"engine"`
		Wires  []struct {
			Label string `json:"label"`
		} `json:"wires"`
	}
	if err := json.Unmarshal([]byte(topoBody), &topo); err != nil {
		t.Fatalf("/topology decode: %v", err)
	}
	if topo.Engine != "main" || len(topo.Wires) != 5 {
		t.Errorf("/topology = engine %q, %d wires", topo.Engine, len(topo.Wires))
	}
}

// TestMetricsTextPerWire verifies the per-wire metric series the ISSUE's
// acceptance check curls from a live engine, via the in-process API.
func TestMetricsTextPerWire(t *testing.T) {
	out := newOutputs()
	cluster, err := tart.Launch(fig1App(),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	if err := in1.EmitAt(1_000_000, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := in2.EmitAt(1_400_000, []string{"z"}); err != nil {
		t.Fatal(err)
	}
	in1.Quiesce(2_000_000)
	in2.Quiesce(2_000_000)
	out.await(t, 2)

	fams, err := cluster.MetricFamilies("main")
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]tart.MetricFamily, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	delivered := byName["tart_delivered_total"]
	var mergerWires int
	for _, s := range delivered.Series {
		if s.Get("component") == "merger" && s.Get("wire") != "" {
			mergerWires++
			if s.Value != 1 {
				t.Errorf("merger wire %s delivered = %v, want 1", s.Get("wire"), s.Value)
			}
		}
	}
	if mergerWires != 2 {
		t.Errorf("merger input-wire series = %d, want 2", mergerWires)
	}
	if _, ok := byName["tart_pessimism_delay_seconds"]; !ok {
		t.Error("pessimism histogram family missing")
	}
	text, err := cluster.MetricsText("main")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `tart_pessimism_delay_seconds_bucket{engine="main"`) {
		t.Error("MetricsText missing pessimism buckets")
	}
}

// TestFailoverFlightDump drives the checkpoint → crash → recover sequence
// on a two-stage pipeline and asserts (a) the flight dump file exists and
// parses as JSONL, and (b) the recorder tells the recovery story in causal
// order: checkpoint, then failover, then replay, then duplicate drops.
func TestFailoverFlightDump(t *testing.T) {
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
		tart.WithFlightRecorder(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
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
	before := out.await(t, 6)

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
	after := out2.await(t, 3)
	if !reflect.DeepEqual(payloadsOf(before[3:6]), payloadsOf(after[:3])) {
		t.Errorf("stutter differs: %v vs %v", payloadsOf(before[3:6]), payloadsOf(after[:3]))
	}

	events, err := cluster.TraceEvents("node", 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(kind tart.TraceEventKind) int {
		for i, ev := range events {
			if ev.Kind == kind {
				return i
			}
		}
		return -1
	}
	ckpt := idx(tart.EvCheckpoint)
	fail := idx(tart.EvFailover)
	replay := idx(tart.EvReplayServe)
	dup := idx(tart.EvDuplicateDrop)
	if ckpt < 0 || fail < 0 || replay < 0 || dup < 0 {
		t.Fatalf("missing story events: checkpoint=%d failover=%d replay=%d dup=%d", ckpt, fail, replay, dup)
	}
	if !(ckpt < fail && fail < replay && replay < dup) {
		t.Errorf("recovery story out of order: checkpoint=%d failover=%d replay=%d dup=%d", ckpt, fail, replay, dup)
	}

	// The dump was written at the end of the failover replay.
	path, err := cluster.FlightDumpPath("node")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	defer f.Close()
	var kinds []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev tart.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad dump line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind.String())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"checkpoint", "failover", "replay-serve", "duplicate-drop"} {
		if !strings.Contains(joined, want) {
			t.Errorf("dump missing %q (kinds: %s)", want, joined)
		}
	}
}

func payloadsOf(outs []tart.Output) []string {
	var ps []string
	for _, o := range outs {
		ps = append(ps, fmt.Sprint(o.Payload))
	}
	return ps
}

// TestAdaptiveSamplingSurvivesFailover holds traffic far above the span
// budget across a Fail/Recover. Delivery counts restart with every engine
// incarnation, so the controller must read the recovered slot's lower count
// as a restart: taken as a negative rate, it would drop the modulus to MinN
// and trace every origin.
func TestAdaptiveSamplingSurvivesFailover(t *testing.T) {
	app := tart.NewApp()
	app.Register("echo", &auditEcho{}, tart.WithConstantCost(time.Microsecond))
	app.SourceInto("in", "echo", "in")
	app.SinkFrom("out", "echo", "out")
	app.PlaceAll("main")
	// Half a span a second: any poll window with a delivery in it needs N > 1.
	cluster, err := tart.Launch(app, tart.WithAdaptiveSpanSampling(tart.AdaptiveSampling{
		SpansPerSec: 0.5,
		PollEvery:   50 * time.Millisecond,
		Quantum:     tart.Ticks(time.Millisecond),
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	emitFor := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
			for i := 0; i < 4; i++ {
				if _, err := src.Emit(i); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	emitFor(400 * time.Millisecond)
	// A fresh checkpoint keeps the replay short, so the recovered engine's
	// count starts well below the failed one's.
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Fail("main"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("main"); err != nil {
		t.Fatal(err)
	}
	emitFor(400 * time.Millisecond)

	epochs := cluster.SampleEpochs()
	first := -1
	for i, ep := range epochs {
		if ep.N > 1 {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatalf("controller never raised the modulus above 1: %+v", epochs)
	}
	for _, ep := range epochs[first+1:] {
		if ep.N == 1 {
			t.Fatalf("controller proposed MinN under load above budget: %+v", epochs)
		}
	}
}
