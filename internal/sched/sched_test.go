package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
	"repro/internal/vt"
)

func TestNewValidation(t *testing.T) {
	tp := fig1(t)
	comp, _ := tp.ComponentByName("merger")
	base := Config{
		Comp:    comp,
		Topo:    tp,
		Handler: passthrough("out"),
		Est:     estimator.Constant{C: 1},
		Router:  &fabric{},
	}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for name, mut := range map[string]func(Config) Config{
		"no comp":    func(c Config) Config { c.Comp = nil; return c },
		"no topo":    func(c Config) Config { c.Topo = nil; return c },
		"no handler": func(c Config) Config { c.Handler = nil; return c },
		"no est":     func(c Config) Config { c.Est = nil; return c },
		"no router":  func(c Config) Config { c.Router = nil; return c },
	} {
		if _, err := New(mut(base)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSingleWirePipelineDeliversInOrder(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	var mu sync.Mutex
	var seen []int
	record := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		mu.Lock()
		seen = append(seen, payload.(int))
		mu.Unlock()
		return nil, ctx.Send("out", payload)
	})
	f.add("sender1", passthrough("out"))
	f.add("sender2", passthrough("out"))
	f.add("merger", record)
	f.start()
	defer f.stop()

	// Sender2 is quiet forever; all traffic flows through sender1.
	f.quiesce("in2", vt.Max)
	for i := 1; i <= 5; i++ {
		f.emit("in1", vt.Time(i*1000), i)
	}
	f.quiesce("in1", vt.Max)

	got := f.awaitSink(5, 5*time.Second)
	mu.Lock()
	defer mu.Unlock()
	for i, v := range seen {
		if v != i+1 {
			t.Errorf("merger saw %v, want 1..5 in order", seen)
			break
		}
	}
	// Output VTs strictly increase on the sink wire.
	for i := 1; i < len(got); i++ {
		if got[i].VT <= got[i-1].VT {
			t.Errorf("sink VTs not increasing: %v then %v", got[i-1].VT, got[i].VT)
		}
	}
	// Sequence numbers are 1..5.
	for i, env := range got {
		if env.Seq != uint64(i+1) {
			t.Errorf("sink seq[%d] = %d", i, env.Seq)
		}
	}
}

func TestMergeOrdersByVirtualTimeNotArrival(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	var mu sync.Mutex
	var order []string
	record := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		mu.Lock()
		order = append(order, fmt.Sprintf("%s:%v", port, payload))
		mu.Unlock()
		return nil, ctx.Send("out", payload)
	})
	f.add("sender1", passthrough("out"), func(c *Config) { c.Est = estimator.Constant{C: 10_000} })
	f.add("sender2", passthrough("out"), func(c *Config) { c.Est = estimator.Constant{C: 10_000} })
	f.add("merger", record)
	f.start()
	defer f.stop()

	// The paper's worked example: sender1's message leaves earlier in real
	// time but carries the LATER virtual time; the merger must process
	// sender2's first.
	f.emit("in1", 50_000, "A") // arrives at merger with VT 50000+10000+delay
	time.Sleep(50 * time.Millisecond)
	f.emit("in2", 30_000, "B") // lower VT, emitted later in real time
	f.quiesce("in1", vt.Max)
	f.quiesce("in2", vt.Max)

	f.awaitSink(2, 5*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "s2:B" || order[1] != "s1:A" {
		t.Errorf("merge order = %v, want [s2:B s1:A]", order)
	}
}

func TestTieBreakByWireID(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	var mu sync.Mutex
	var order []string
	record := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		mu.Lock()
		order = append(order, port)
		mu.Unlock()
		return nil, ctx.Send("out", payload)
	})
	f.add("sender1", passthrough("out"))
	f.add("sender2", passthrough("out"))
	f.add("merger", record)
	f.start()
	defer f.stop()

	// Identical VTs at the senders produce identical VTs at the merger
	// (same estimator, same delay). Wire s1 has the lower ID, so it must
	// win the tie — regardless of real arrival order (s2 emitted first).
	f.emit("in2", 1000, "b")
	time.Sleep(30 * time.Millisecond)
	f.emit("in1", 1000, "a")
	f.quiesce("in1", vt.Max)
	f.quiesce("in2", vt.Max)

	f.awaitSink(2, 5*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "s1" || order[1] != "s2" {
		t.Errorf("tie-break order = %v, want [s1 s2]", order)
	}
}

// totalOf sums a scheduler's per-wire counts, duplicate replies folded into
// Duplicates. The counts are kept with no observer attached, which is how
// these tests run them.
func totalOf(s *Scheduler) WireCounts {
	c := s.Counts()
	var t WireCounts
	for _, w := range c.Wires {
		t.Delivered += w.Delivered
		t.OutOfOrder += w.OutOfOrder
		t.Probes += w.Probes
		t.Duplicates += w.Duplicates
		t.HoldbackDrops += w.HoldbackDrops
		t.PessimismNanos += w.PessimismNanos
		t.PessimismEpisodes += w.PessimismEpisodes
	}
	for _, n := range c.ReplyDups {
		t.Duplicates += n
	}
	return t
}

func TestPessimismDelayMeteredAndProbesSent(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	f.add("sender1", passthrough("out"))
	f.add("sender2", passthrough("out"))
	merger := f.add("merger", passthrough("out"), func(c *Config) {
		c.ProbeRetry = 10 * time.Millisecond
	})
	f.start()
	defer f.stop()

	f.emit("in1", 1000, "x")
	// sender2 is idle at clock 0 with min cost 100 and wire delay 1000, so
	// the best it can promise is silence through 1099 — below the
	// candidate's VT (≈2100). The merger must stall, meter the pessimism
	// delay, and send curiosity probes.
	time.Sleep(80 * time.Millisecond)
	snap := totalOf(merger)
	if snap.Delivered != 0 {
		t.Fatalf("merger delivered %d messages while blocked", snap.Delivered)
	}
	if snap.Probes == 0 {
		t.Error("no curiosity probes sent during pessimism delay")
	}

	// Quiescing sender2's source advances sender2's frontier, letting its
	// governor answer the merger's standing curiosity and unblock it; a
	// later message then flows normally.
	f.quiesce("in2", 400_000)
	f.emit("in2", 500_000, "y")
	// y (VT ≈501100 at the merger) in turn needs sender1's silence past it.
	f.quiesce("in1", 600_000)

	f.awaitSink(2, 5*time.Second)
	snap = totalOf(merger)
	if snap.Delivered != 2 {
		t.Errorf("delivered = %d, want 2", snap.Delivered)
	}
	if snap.PessimismNanos <= 0 || snap.PessimismEpisodes == 0 {
		t.Error("pessimism delay not metered")
	}
}

func TestLazyStrategySendsNoProbes(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	lazy := func(c *Config) {
		c.Silence = silence.Config{Strategy: silence.Lazy}
		c.ProbeRetry = 5 * time.Millisecond
	}
	f.add("sender1", passthrough("out"), lazy)
	f.add("sender2", passthrough("out"), lazy)
	merger := f.add("merger", passthrough("out"), lazy)
	f.start()
	defer f.stop()

	f.emit("in1", 1000, "x")
	time.Sleep(60 * time.Millisecond)
	if snap := totalOf(merger); snap.Probes != 0 {
		t.Errorf("lazy merger sent %d probes", snap.Probes)
	}
	// Lazy silence: only the next data message on a wire reveals the
	// silence before it. y's data message unblocks x at the merger, and a
	// later message through sender1 unblocks y.
	f.emit("in2", 400_000, "y")
	f.emit("in1", 500_000, "z")
	f.awaitSink(2, 5*time.Second)
	if snap := totalOf(merger); snap.Probes != 0 {
		t.Errorf("lazy merger sent %d probes after unblocking", snap.Probes)
	}
}

func TestDuplicateSequencesDropped(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	sender1 := f.add("sender1", passthrough("out"))
	f.add("sender2", passthrough("out"))
	f.add("merger", passthrough("out"))
	f.start()
	defer f.stop()

	f.quiesce("in2", vt.Max)
	src, _ := tp.SourceByName("in1")
	f.Route(msg.NewData(src.Wire, 1, 1000, "a"))
	f.Route(msg.NewData(src.Wire, 1, 1000, "a")) // duplicate
	f.Route(msg.NewData(src.Wire, 2, 2000, "b"))
	f.Route(msg.NewData(src.Wire, 2, 2000, "b")) // duplicate
	f.quiesce("in1", vt.Max)

	got := f.awaitSink(2, 5*time.Second)
	if len(got) != 2 {
		t.Fatalf("sink got %d messages", len(got))
	}
	if snap := totalOf(sender1); snap.Duplicates != 2 {
		t.Errorf("duplicates dropped = %d, want 2", snap.Duplicates)
	}
}

func TestSequenceGapHeldBackAndReleased(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	var mu sync.Mutex
	var seen []any
	record := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		mu.Lock()
		seen = append(seen, payload)
		mu.Unlock()
		return nil, ctx.Send("out", payload)
	})
	f.add("sender1", record)
	f.add("sender2", passthrough("out"))
	f.add("merger", passthrough("out"))
	f.start()
	defer f.stop()

	src, _ := tp.SourceByName("in1")
	f.quiesce("in2", vt.Max)
	// seq 2 and 3 arrive before seq 1 (e.g. reconnect reordering).
	f.Route(msg.NewData(src.Wire, 2, 2000, "b"))
	f.Route(msg.NewData(src.Wire, 3, 3000, "c"))
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("messages beyond a gap were delivered: %v", seen)
	}
	f.Route(msg.NewData(src.Wire, 1, 1000, "a"))
	f.quiesce("in1", vt.Max)
	f.awaitSink(3, 5*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 || seen[0] != "a" || seen[1] != "b" || seen[2] != "c" {
		t.Errorf("delivery after gap fill = %v, want [a b c]", seen)
	}
}

func TestOutOfRealTimeOrderCounted(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	f.add("sender1", passthrough("out"))
	f.add("sender2", passthrough("out"))
	merger := f.add("merger", passthrough("out"))
	f.start()
	defer f.stop()

	// s1's message arrives FIRST in real time but has the LATER virtual
	// time, so it is delivered second → counted as out-of-RT-order.
	f.emit("in1", 100_000, "late-vt")
	time.Sleep(40 * time.Millisecond)
	f.emit("in2", 1000, "early-vt")
	f.quiesce("in1", vt.Max)
	f.quiesce("in2", vt.Max)
	f.awaitSink(2, 5*time.Second)

	if snap := totalOf(merger); snap.OutOfOrder != 1 {
		t.Errorf("out-of-order count = %d, want 1", snap.OutOfOrder)
	}
}

func TestUnknownPortErrors(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	errCh := make(chan error, 1)
	h := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		errCh <- ctx.Send("nonexistent", payload)
		return nil, nil
	})
	f.add("sender1", h)
	f.add("sender2", passthrough("out"))
	f.add("merger", passthrough("out"))
	f.start()
	defer f.stop()

	f.emit("in1", 1000, "x")
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("Send to unknown port succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never ran")
	}
}

func TestClockAdvancesByEstimatorCost(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	s1 := f.add("sender1", passthrough("out"), func(c *Config) {
		c.Est = estimator.Constant{C: 61827}
	})
	f.add("sender2", passthrough("out"))
	f.add("merger", passthrough("out"))
	f.start()
	defer f.stop()

	f.quiesce("in2", vt.Max)
	f.emit("in1", 50_000, "sentence")
	// in1 is deliberately NOT quiesced: quiescing it to vt.Max would advance
	// sender1's frontier (and clock) to vt.Max, which is exactly what this
	// test wants to distinguish from processing-driven clock advance.
	f.awaitSink(1, 5*time.Second)

	// Sender1 dequeued at 50000 and was charged 61827 → clock 111827.
	if got := s1.Clock(); got != 111_827 {
		t.Errorf("sender1 clock = %v, want 111827", got)
	}
}

func TestRunStopLifecycle(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	s := f.add("sender1", passthrough("out"))
	f.add("sender2", passthrough("out"))
	f.add("merger", passthrough("out"))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Error("second Run should fail")
	}
	s.Stop()
	s.Stop() // idempotent
	// Stop before Run on a fresh scheduler.
	f2 := newFabric(t, tp)
	s2 := f2.add("sender1", passthrough("out"))
	s2.Stop()
	if err := s2.Run(); err == nil {
		t.Error("Run after Stop should fail")
	}
	// Remaining schedulers in f were started? No — only s was. Stop the
	// others safely.
	f.stop()
}

// recordRouter keeps every routed envelope.
type recordRouter struct {
	mu  sync.Mutex
	got []msg.Envelope
}

func (r *recordRouter) Route(env msg.Envelope) {
	r.mu.Lock()
	r.got = append(r.got, env)
	r.mu.Unlock()
}

// take returns and forgets the envelopes of the given kind routed so far.
func (r *recordRouter) take(kind msg.Kind) []msg.Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []msg.Envelope
	for _, env := range r.got {
		if env.Kind == kind {
			out = append(out, env)
		}
	}
	r.got = r.got[:0]
	return out
}

// TestProbeClimbsOneInFlight: a single-input component that cannot cover a
// probe forwards it up its input for the horizon the target needs (target
// − MinCost − WireDelay) and sends no short answer; a second probe waits
// while the first is unanswered, and once the answer arrives the worker
// forwards the standing target that is still short. A Lazy component never
// forwards, and answers with what it has.
func TestProbeClimbsOneInFlight(t *testing.T) {
	tp := fig1(t)
	comp, _ := tp.ComponentByName("sender1")
	in, out := comp.Inputs[0], comp.Outputs["out"]
	r := &recordRouter{}
	s, err := New(Config{Comp: comp, Topo: tp, Handler: passthrough("out"),
		Est: estimator.Constant{C: 100}, Router: r,
		Silence: silence.Config{Strategy: silence.Curiosity}})
	if err != nil {
		t.Fatal(err)
	}
	need := func(target vt.Time) vt.Time {
		return target.Add(-s.cfg.Est.MinCost(0)).Add(-tp.Wire(out).Delay)
	}
	probesOn := func(envs []msg.Envelope) []vt.Time {
		var ts []vt.Time
		for _, env := range envs {
			if env.Wire != in {
				t.Fatalf("probe on wire %v, want the input %v", env.Wire, in)
			}
			ts = append(ts, env.Promise)
		}
		return ts
	}

	// step runs what the worker runs after a wake, and returns the probes
	// it would route.
	step := func() []vt.Time {
		_, control := s.step(nil)
		var fwd []msg.Envelope
		for _, env := range control {
			if env.Kind == msg.KindProbe {
				fwd = append(fwd, env)
			}
		}
		return probesOn(fwd)
	}

	s.Deliver(msg.NewProbe(out, 10_000))
	if got := step(); len(got) != 1 || got[0] != need(10_000) {
		t.Fatalf("forwarded probes = %v, want one for %v", got, need(10_000))
	}
	s.Deliver(msg.NewProbe(out, 20_000))
	if got := step(); len(got) != 0 {
		t.Fatalf("a second probe went up while the first was outstanding: %v", got)
	}
	// The answer covers the first forward; the standing 20_000 is still
	// short, so the next step forwards it.
	s.Deliver(msg.NewSilence(in, need(10_000)))
	if got := step(); len(got) != 1 || got[0] != need(20_000) {
		t.Fatalf("step forwarded %v, want one probe for %v", got, need(20_000))
	}
	if got := r.take(msg.KindSilence); len(got) != 0 {
		t.Fatalf("short answers were sent: %v", got)
	}

	lazy, err := New(Config{Comp: comp, Topo: tp, Handler: passthrough("out"),
		Est: estimator.Constant{C: 100}, Router: r,
		Silence: silence.Config{Strategy: silence.Lazy}})
	if err != nil {
		t.Fatal(err)
	}
	lazy.Deliver(msg.NewProbe(out, 10_000))
	if _, control := lazy.step(nil); len(control) != 0 {
		t.Fatalf("a lazy component forwarded %v", control)
	}
	if got := r.take(msg.KindSilence); len(got) != 1 {
		t.Fatalf("a lazy component answered %v, want its short promise", got)
	}
}
