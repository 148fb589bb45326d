package sched

import (
	"testing"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vt"
)

// TestDeliveryAllocatesNothing pins the steady-state delivery path: one
// Deliver plus the step that runs a handler which Sends on one of four
// output wires, under the default Curiosity governor with no standing
// curiosity, must not allocate. The payload travels as the `any` it arrived
// as, so the handler adds no boxing of its own.
func TestDeliveryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	b := topo.NewBuilder()
	b.AddComponent("gate")
	ports := [4]string{"s0", "s1", "s2", "s3"}
	for _, p := range ports {
		b.AddComponent(p)
		b.Connect("gate", p, p, "in")
	}
	b.AddSource("in", "gate", "in")
	b.PlaceAll("e0")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := tp.ComponentByName("gate")
	handled := 0
	s, err := New(Config{
		Comp: comp,
		Topo: tp,
		Handler: HandlerFunc(func(ctx *Ctx, _ string, payload any) (any, error) {
			handled++
			return nil, ctx.Send(ports[handled%len(ports)], payload)
		}),
		Est:     estimator.Constant{C: 50},
		Silence: silence.Config{Strategy: silence.Curiosity},
		Router:  nopRouter{},
		Metrics: &trace.Metrics{},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the worker's step on this goroutine instead of Run, so the
	// measurement sees exactly one delivery per run and nothing else.
	var control []msg.Envelope
	var seq uint64
	payload := any("x")
	deliver := func() {
		seq++
		s.Deliver(msg.NewData(comp.Inputs[0], seq, vt.Time(seq*1000), payload))
		_, control = s.step(control[:0])
	}
	for i := 0; i < 64; i++ { // grow the input ring and the wire maps first
		deliver()
	}
	before := handled
	const runs = 1000
	if avg := testing.AllocsPerRun(runs, deliver); avg != 0 {
		t.Errorf("one delivery allocates %.2f objects, want 0", avg)
	}
	if got := handled - before; got != runs+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("handler ran %d times over %d deliveries", got, runs+1)
	}
}
