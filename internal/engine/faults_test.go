package engine

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/estimator"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/vt"
	"repro/internal/wal"
)

// TestLossyLinkRecovered drives the split Figure-1 app over a Netem link
// that drops, duplicates, and reorders frames in both directions (hellos
// pass unfaulted). The sequence-number layer plus gap-repair replay requests
// must deliver the exact stream regardless.
func TestLossyLinkRecovered(t *testing.T) {
	tp := fig1Topo(t, true)
	inner := transport.NewInproc()
	addrs := map[string]string{"A": "a", "B": "b"}
	nm := transport.NewNetem(1)
	nm.SetAddrs(addrs)
	nm.SetLinkPlan("A", "B", transport.FaultPlan{
		DropProb:    0.15,
		DupProb:     0.10,
		ReorderProb: 0.10,
	})
	mk := func(name string, comps map[string]ComponentSpec) *Engine {
		e, err := New(Config{
			Name:           name,
			Topo:           tp,
			Components:     comps,
			Transport:      nm.For(name, inner),
			Addrs:          addrs,
			RedialEvery:    5 * time.Millisecond,
			GapRepairEvery: 10 * time.Millisecond,
			HeartbeatEvery: 20 * time.Millisecond,
			Metrics:        registryMetrics(name),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	specs := fig1Specs()
	engB := mk("B", map[string]ComponentSpec{"merger": specs["merger"]})
	engA := mk("A", map[string]ComponentSpec{
		"sender1": specs["sender1"],
		"sender2": specs["sender2"],
	})
	sink := newSinkCollector()
	if err := engB.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := engB.Start(); err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	defer engA.Stop()
	defer engB.Stop()

	in1, _ := engA.Source("in1")
	in2, _ := engA.Source("in2")
	const n = 30
	for i := 1; i <= n; i++ {
		if err := in1.EmitAt(vt.Time(i*1_000_000), []string{"x"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(vt.Time(i*1_000_000+400_000), []string{"z"}); err != nil {
			t.Fatal(err)
		}
	}
	in1.Quiesce(vt.Time((n + 1) * 1_000_000))
	in2.Quiesce(vt.Time((n + 1) * 1_000_000))

	got := sink.await(t, 2*n, 60*time.Second)
	// Exactly-once, in order, despite the lossy link.
	for i, env := range got[:2*n] {
		if env.Seq != uint64(i+1) {
			t.Fatalf("sink seq[%d] = %d — lost or duplicated output", i, env.Seq)
		}
		if i > 0 && env.VT <= got[i-1].VT {
			t.Fatalf("sink VT order violated at %d", i)
		}
	}
	if snapB := engB.Totals(); snapB.Delivered != 2*n {
		t.Errorf("merger delivered %d, want %d", snapB.Delivered, 2*n)
	}
	if st := nm.Stats(); st.Dropped == 0 {
		t.Errorf("netem dropped nothing (%+v): the link was not lossy", st)
	}
}

// callSplitTopo places a caller on engine A and the callee on engine B.
func callSplitTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	b.AddComponent("client")
	b.AddComponent("server")
	b.AddSource("in", "client", "req")
	b.ConnectCall("client", "lookup", "server", "q")
	b.AddSink("out", "client", "out")
	b.Place("client", "A")
	b.Place("server", "B")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// callClient performs one call per input and forwards the reply.
type callClient struct {
	Handled int
}

func (c *callClient) OnMessage(ctx *sched.Ctx, port string, payload any) (any, error) {
	c.Handled++
	reply, err := ctx.Call("lookup", payload)
	if err != nil {
		return nil, err
	}
	return nil, ctx.Send("out", reply)
}

// callServer is a stateful call target (reply depends on history, so a
// re-executed call MUST be answered from the buffered reply, not re-run).
type callServer struct {
	Counter int
}

func (s *callServer) OnMessage(ctx *sched.Ctx, port string, payload any) (any, error) {
	s.Counter++
	return s.Counter * 100, nil
}

// TestCallerFailoverGetsBufferedReply crashes the caller's engine after
// calls completed, restores it from a pre-call checkpoint, and verifies
// the re-issued calls are answered from the callee's reply buffer — with
// the ORIGINAL replies (the callee must not re-execute its handler).
func TestCallerFailoverGetsBufferedReply(t *testing.T) {
	tp := callSplitTopo(t)
	net := transport.NewInproc()
	addrs := map[string]string{"A": "a", "B": "b"}
	logA := wal.NewMemLog()
	storeA := checkpoint.NewReplicaStore()

	mkA := func() (*Engine, error) {
		return New(Config{
			Name:       "A",
			Topo:       tp,
			Components: map[string]ComponentSpec{"client": spec(&callClient{}, 10_000)},
			Transport:  net, Addrs: addrs,
			Log: logA, Backup: storeA,
			RedialEvery: 5 * time.Millisecond, GapRepairEvery: 10 * time.Millisecond,
		})
	}
	engB, err := New(Config{
		Name:       "B",
		Topo:       tp,
		Components: map[string]ComponentSpec{"server": spec(&callServer{}, 20_000)},
		Transport:  net, Addrs: addrs,
		RedialEvery: 5 * time.Millisecond, GapRepairEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	engA, err := mkA()
	if err != nil {
		t.Fatal(err)
	}
	sink := newSinkCollector()
	if err := engA.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := engB.Start(); err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	defer engB.Stop()

	in, _ := engA.Source("in")
	if err := in.EmitAt(1_000_000, 1); err != nil {
		t.Fatal(err)
	}
	sink.await(t, 1, 10*time.Second)
	// Checkpoint the CALLER before the remaining calls.
	if _, err := engA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := in.EmitAt(2_000_000, 2); err != nil {
		t.Fatal(err)
	}
	if err := in.EmitAt(3_000_000, 3); err != nil {
		t.Fatal(err)
	}
	before := recordsOf(sink.await(t, 3, 10*time.Second))

	// Crash A. The server's state (Counter=3) must survive untouched; the
	// restored client re-issues calls 2 and 3 and must receive the
	// ORIGINAL replies 200 and 300 from B's reply buffer — a re-executed
	// server would answer 400 and 500.
	engA.Kill()
	sink2 := newSinkCollector()
	engA2, err := NewFromBackup(Config{
		Name:       "A",
		Topo:       tp,
		Components: map[string]ComponentSpec{"client": spec(&callClient{}, 10_000)},
		Transport:  net, Addrs: addrs,
		Log: logA, Backup: storeA,
		RedialEvery: 5 * time.Millisecond, GapRepairEvery: 10 * time.Millisecond,
	}, storeA)
	if err != nil {
		t.Fatal(err)
	}
	if err := engA2.Sink("out", sink2.fn); err != nil {
		t.Fatal(err)
	}
	if err := engA2.Start(); err != nil {
		t.Fatal(err)
	}
	defer engA2.Stop()

	after := recordsOf(sink2.await(t, 2, 20*time.Second))
	if !reflect.DeepEqual(before[1:3], after[:2]) {
		t.Errorf("replayed call results differ:\n  want %+v\n  got  %+v", before[1:3], after[:2])
	}
	// The server executed each call exactly once.
	srvSched, _ := engB.Scheduler("server")
	if srvSched.Clock() == 0 {
		t.Error("server never ran")
	}
	// New calls continue with fresh server state.
	in2, _ := engA2.Source("in")
	if err := in2.EmitAt(4_000_000, 4); err != nil {
		t.Fatal(err)
	}
	post := recordsOf(sink2.await(t, 3, 10*time.Second))
	if post[2].Payload != 400 {
		t.Errorf("post-recovery call reply = %v, want 400 (server state preserved)", post[2].Payload)
	}
}

// TestReissuedCallCountsOneDuplicate delivers an already-answered call
// request to the callee's engine a second time — the frame a recovering
// caller re-issues — and checks that the callee counts one duplicate, not
// one in its scheduler and another when the engine re-sends the reply.
func TestReissuedCallCountsOneDuplicate(t *testing.T) {
	tp := callSplitTopo(t)
	net := transport.NewInproc()
	addrs := map[string]string{"A": "a", "B": "b"}
	mk := func(name, comp string, h sched.Handler) *Engine {
		e, err := New(Config{
			Name: name, Topo: tp,
			Components: map[string]ComponentSpec{comp: spec(h, 10_000)},
			Transport:  net, Addrs: addrs,
			RedialEvery: 5 * time.Millisecond, GapRepairEvery: 10 * time.Millisecond,
			Metrics: registryMetrics(name),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	engA := mk("A", "client", &callClient{})
	engB := mk("B", "server", &callServer{})
	sink := newSinkCollector()
	if err := engA.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{engB, engA} {
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
	}
	in, _ := engA.Source("in")
	if err := in.EmitAt(1_000_000, 1); err != nil {
		t.Fatal(err)
	}
	sink.await(t, 1, 10*time.Second)

	// The call may already have reached the callee twice (sent on a link that
	// came up while the reconnect resend was running), so count the delta.
	dups := func(e *Engine) int64 { return e.Totals().DuplicatesDropped }
	calleeBefore, callerBefore := dups(engB), dups(engA)
	client, _ := tp.ComponentByName("client")
	reqs := engA.buffers.from(client.Outputs["lookup"], 1)
	if len(reqs) != 1 {
		t.Fatalf("caller buffered %d call requests, want 1", len(reqs))
	}
	engB.dispatch(reqs[:1])
	if got := dups(engB) - calleeBefore; got != 1 {
		t.Errorf("callee counted %d duplicates for one re-issued call, want 1", got)
	}
	// The re-sent reply finds no waiter at the caller: one stale reply.
	deadline := time.Now().Add(5 * time.Second)
	for dups(engA)-callerBefore < 1 {
		if time.Now().After(deadline) {
			t.Fatal("caller never saw the re-sent reply")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSourceProbeAnswering verifies that probes addressed to a source wire
// are answered by the engine with the source's silence knowledge.
func TestSourceProbeAnswering(t *testing.T) {
	// One component with TWO source wires: delivering either message
	// requires silence knowledge of the other source.
	b := topo.NewBuilder()
	b.AddComponent("joiner")
	b.AddSource("left", "joiner", "l")
	b.AddSource("right", "joiner", "r")
	b.AddSink("out", "joiner", "out")
	b.PlaceAll("A")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Name: "A",
		Topo: tp,
		Components: map[string]ComponentSpec{
			"joiner": spec(passthroughComp{}, 1000),
		},
		// No periodic source silence: unblocking depends on probe answers.
		Clock:   func() vt.Time { return 10_000_000 },
		Metrics: registryMetrics("A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := newSinkCollector()
	if err := e.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	left, _ := e.Source("left")
	if err := left.EmitAt(1_000_000, "x"); err != nil {
		t.Fatal(err)
	}
	// The joiner blocks on the right source; its probe must be answered
	// from the engine clock (10ms), which covers the candidate.
	got := sink.await(t, 1, 10*time.Second)
	if got[0].Payload != "x" {
		t.Errorf("payload = %v", got[0].Payload)
	}
	if snap := e.Totals(); snap.ProbesSent == 0 {
		t.Error("no probes were needed?")
	}
}

// passthroughComp forwards everything to "out".
type passthroughComp struct{}

func (passthroughComp) OnMessage(ctx *sched.Ctx, port string, payload any) (any, error) {
	return nil, ctx.Send("out", payload)
}

// TestRecalibrationOrderedBeforeNewestEpochNotLogged: the scheduler's
// recalibration commit moves a fault past the replay horizon, and refuses
// one ordered before the estimator's newest epoch before it reaches the
// log — logged, it would fail every later restore that re-applies it.
func TestRecalibrationOrderedBeforeNewestEpochNotLogged(t *testing.T) {
	one := func(any) estimator.Features { return estimator.Features{1} }
	cal := estimator.NewCalibrated(estimator.NewLinear(one, []float64{1000}, 1), estimator.Config{})
	specs := fig1Specs()
	merger := specs["merger"]
	merger.Est, merger.Extract = cal, one
	specs["merger"] = merger
	log := wal.NewMemLog()
	e, err := New(Config{Name: "A", Topo: fig1Topo(t, false), Components: specs, Log: log, ReplayHorizon: 5000})
	if err != nil {
		t.Fatal(err)
	}
	commit := calibrationFor(e, "merger", cal, merger).Commit
	logged := func() int {
		recs, err := log.Faults("merger")
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}

	early := &estimator.Fault{EffectiveVT: 100, Coeffs: []float64{2000}}
	if err := commit(early); err != nil {
		t.Fatal(err)
	}
	if early.EffectiveVT != 5001 || logged() != 1 {
		t.Fatalf("fault inside the replay horizon committed at %s with %d logged, want vt(5001) and 1", early.EffectiveVT, logged())
	}
	if err := commit(&estimator.Fault{EffectiveVT: 9000, Coeffs: []float64{3000}}); err != nil {
		t.Fatal(err)
	}
	if err := commit(&estimator.Fault{EffectiveVT: 6000, Coeffs: []float64{4000}}); err == nil {
		t.Fatal("a fault ordered before the newest epoch was committed")
	}
	if got := logged(); got != 2 {
		t.Fatalf("%d faults logged, want 2: the refused one reached the log", got)
	}
	if got := cal.Cost(nil, 9000); got != 3000 {
		t.Fatalf("cost at vt(9000) = %d, want the newest epoch's 3000", got)
	}
}
