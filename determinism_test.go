package tart_test

import (
	"testing"
	"time"

	tart "repro"
)

// traceFaults filters determinism-fault events.
func traceFaults(events []tart.TraceEvent) []tart.TraceEvent {
	var faults []tart.TraceEvent
	for _, ev := range events {
		if ev.Kind == tart.EvDeterminismFault {
			faults = append(faults, ev)
		}
	}
	return faults
}

// TestTwoEngineFailoverZeroDeterminismFaults runs the split Figure-1 app
// (senders on A, merger on B), kills and recovers B mid-stream, and requires
// the determinism audit to stay silent: the replayed merge must re-derive
// the exact delivery chain the first generation recorded.
func TestTwoEngineFailoverZeroDeterminismFaults(t *testing.T) {
	failoverAuditClean(t, fig1App("A", "B"))
}

// ptrInner and ptrPayload make a gob-fallback payload that holds a pointer,
// so every TCP hop decodes it into fresh memory.
type ptrInner struct{ N int }

type ptrPayload struct {
	K string
	P *ptrInner
}

// ptrRelay forwards each input's first word with its running count behind
// a pointer; ptrTotaler sums the counts.
type ptrRelay struct{ Seen int }

func (r *ptrRelay) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	r.Seen++
	return nil, ctx.Send("out", ptrPayload{K: payload.([]string)[0], P: &ptrInner{N: r.Seen}})
}

type ptrTotaler struct{ Total int }

func (t *ptrTotaler) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	t.Total += payload.(ptrPayload).P.N
	return nil, ctx.Send("out", t.Total)
}

// TestTCPFailoverPointerPayloadZeroDeterminismFaults is the same failover
// over TCP with a payload that holds a pointer. The merger's first
// generation and its replay each digest a freshly decoded copy, so the
// audit must digest the value behind the pointer, not its address.
func TestTCPFailoverPointerPayloadZeroDeterminismFaults(t *testing.T) {
	if err := tart.RegisterPayload(ptrPayload{}); err != nil {
		t.Fatal(err)
	}
	app := tart.NewApp()
	app.Register("sender1", &ptrRelay{}, tart.WithConstantCost(61*time.Microsecond))
	app.Register("sender2", &ptrRelay{}, tart.WithConstantCost(61*time.Microsecond))
	app.Register("merger", &ptrTotaler{}, tart.WithConstantCost(400*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.Place("sender1", "A")
	app.Place("sender2", "A")
	app.Place("merger", "B")
	failoverAuditClean(t, app, tart.WithTCP(map[string]string{"A": freeLoopbackAddr(t), "B": freeLoopbackAddr(t)}))
}

// failoverAuditClean drives a senders-on-A, merger-on-B app through a
// checkpoint of B, more input, and B's failure and recovery, and requires
// every engine's determinism audit to stay silent.
func failoverAuditClean(t *testing.T, app *tart.App, opts ...tart.ClusterOption) {
	t.Helper()
	out := newOutputs()
	cluster, err := tart.Launch(app, append(opts,
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithFlightRecorder(""))...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	emit := func(i int) {
		if err := in1.EmitAt(tart.VirtualTime(i*1_000_000), []string{"x"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(tart.VirtualTime(i*1_000_000+400_000), []string{"z"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		emit(i)
	}
	in1.Quiesce(3_500_000)
	in2.Quiesce(3_500_000)
	out.await(t, 6)

	if _, err := cluster.Checkpoint("B"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		emit(i)
	}
	in1.Quiesce(7_000_000)
	in2.Quiesce(7_000_000)
	out.await(t, 12)

	if err := cluster.Fail("B"); err != nil {
		t.Fatal(err)
	}
	out2 := newOutputs()
	if err := cluster.Sink("out", out2.fn); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("B"); err != nil {
		t.Fatal(err)
	}
	in1.Quiesce(7_000_000)
	in2.Quiesce(7_000_000)
	out2.await(t, 6) // the replayed stutter past the checkpoint

	for _, engine := range cluster.Engines() {
		events, err := cluster.TraceEvents(engine, 0)
		if err != nil {
			t.Fatal(err)
		}
		if faults := traceFaults(events); len(faults) != 0 {
			t.Errorf("engine %s recorded %d determinism faults across failover: %+v",
				engine, len(faults), faults)
		}
		m, err := cluster.Metrics(engine)
		if err != nil {
			t.Fatal(err)
		}
		if m.DeterminismFaults != 0 {
			t.Errorf("engine %s determinism-fault counter = %d, want 0", engine, m.DeterminismFaults)
		}
	}
}

// TestProvenanceCausalChain drives a two-stage pipeline and reconstructs one
// external input's causal chain from the flight recorder: source emission,
// delivery at the first stage, the derived send, its delivery at the second
// stage, and the send to the sink — hop counts rising along the way.
func TestProvenanceCausalChain(t *testing.T) {
	app := tart.NewApp()
	app.Register("count", newCounter(), tart.WithConstantCost(50*time.Microsecond))
	app.Register("relay", &totaler{}, tart.WithConstantCost(20*time.Microsecond))
	app.SourceInto("in", "count", "in")
	app.Connect("count", "out", "relay", "s")
	app.SinkFrom("out", "relay", "out")
	app.PlaceAll("main")

	out := newOutputs()
	cluster, err := tart.Launch(app,
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithFlightRecorder(""))
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

	events, err := cluster.TraceEvents("main", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Every message-flow event must carry provenance.
	var flow int
	for _, ev := range events {
		switch ev.Kind {
		case tart.EvSourceEmit, tart.EvDeliver, tart.EvSend:
			flow++
			if ev.Origin == 0 {
				t.Errorf("%s event (component %q, wire %v) has no origin", ev.Kind, ev.Component, ev.Wire)
			}
		}
	}
	if flow == 0 {
		t.Fatal("no message-flow events recorded")
	}

	// The second input's chain: emit → deliver(count) → send → deliver(relay) → send.
	var origin tart.OriginID
	seen := 0
	for _, ev := range events {
		if ev.Kind == tart.EvSourceEmit {
			seen++
			if seen == 2 {
				origin = ev.Origin
				break
			}
		}
	}
	if origin == 0 {
		t.Fatal("no second source emission recorded")
	}
	if parsed, err := tart.ParseOrigin(origin.String()); err != nil || parsed != origin {
		t.Errorf("origin %v does not round-trip through its string form: %v, %v", origin, parsed, err)
	}

	chain := tart.CausalChain(events, origin)
	if len(chain) < 5 {
		t.Fatalf("causal chain has %d events, want at least 5: %+v", len(chain), chain)
	}
	components := map[string]bool{}
	var lastHops uint32
	for i, ev := range chain {
		if ev.Component != "" {
			components[ev.Component] = true
		}
		if ev.Hops < lastHops {
			t.Errorf("chain[%d] hop count fell: %d after %d", i, ev.Hops, lastHops)
		}
		lastHops = ev.Hops
	}
	if !components["count"] || !components["relay"] {
		t.Errorf("chain spans components %v, want both count and relay", components)
	}
	if chain[0].Kind != tart.EvSourceEmit || chain[0].Hops != 0 {
		t.Errorf("chain starts with %s at hop %d, want source-emit at hop 0", chain[0].Kind, chain[0].Hops)
	}
	if lastHops < 2 {
		t.Errorf("chain reaches hop %d, want >= 2 (two-stage pipeline)", lastHops)
	}
}
