package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/vt"
)

// fanInTopo wires n senders into one merger.
func fanInTopo(t testing.TB, n int) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddComponent(fmt.Sprintf("sender%d", i))
	}
	b.AddComponent("merger")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sender%d", i)
		b.AddSource(fmt.Sprintf("in%d", i), name, "in")
		b.Connect(name, "out", "merger", fmt.Sprintf("s%d", i))
	}
	b.AddSink("out", "merger", "out")
	b.PlaceAll("e0")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestWideFanInDeliversInVirtualTimeOrder drives a 5-way merge with
// randomized emission schedules and real-time jitter, checking the global
// VT order at the merger and strict per-wire monotonicity at the sink.
func TestWideFanInDeliversInVirtualTimeOrder(t *testing.T) {
	const senders = 5
	const perSender = 20
	tp := fanInTopo(t, senders)
	f := newFabric(t, tp)

	var mu sync.Mutex
	var deliveredVTs []vt.Time
	record := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		mu.Lock()
		deliveredVTs = append(deliveredVTs, ctx.Now())
		mu.Unlock()
		return nil, ctx.Send("out", payload)
	})
	for i := 0; i < senders; i++ {
		// Different costs per sender → interleaved virtual times.
		cost := vt.Ticks(10_000 * (i + 1))
		f.add(fmt.Sprintf("sender%d", i), passthrough("out"), func(c *Config) {
			c.Est = estimator.Constant{C: cost}
			c.ProbeRetry = 2 * time.Millisecond
		})
	}
	f.add("merger", record, func(c *Config) { c.ProbeRetry = 2 * time.Millisecond })
	f.start()
	defer f.stop()

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(i) + 7) // per-goroutine stream
			src := fmt.Sprintf("in%d", i)
			base := vt.Time(0)
			for j := 0; j < perSender; j++ {
				base = base.Add(vt.Ticks(100_000 + rng.Int63n(900_000)))
				f.emit(src, base, fmt.Sprintf("%d/%d", i, j))
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
			f.quiesce(src, vt.Max)
		}(i)
	}
	wg.Wait()

	sunk := f.awaitSink(senders*perSender, 30*time.Second)

	// The merger dequeued in non-decreasing virtual time.
	mu.Lock()
	for i := 1; i < len(deliveredVTs); i++ {
		if deliveredVTs[i] < deliveredVTs[i-1] {
			t.Fatalf("merger dequeue VTs regressed at %d: %v then %v",
				i, deliveredVTs[i-1], deliveredVTs[i])
		}
	}
	mu.Unlock()
	// The sink wire's VTs are strictly increasing and seqs consecutive.
	for i := 1; i < len(sunk); i++ {
		if sunk[i].VT <= sunk[i-1].VT {
			t.Fatalf("sink VT not strictly increasing at %d", i)
		}
		if sunk[i].Seq != sunk[i-1].Seq+1 {
			t.Fatalf("sink seq gap at %d", i)
		}
	}
}

// TestFeedbackLoopMakesProgress wires a send cycle (a → b → a) and checks
// the loop neither deadlocks nor reorders: positive per-hop costs keep
// virtual time strictly advancing around the cycle.
func TestFeedbackLoopMakesProgress(t *testing.T) {
	b := topo.NewBuilder()
	b.AddComponent("a")
	b.AddComponent("b")
	b.AddSource("in", "a", "in")
	b.Connect("a", "toB", "b", "fromA")
	b.Connect("b", "toA", "a", "fb")
	b.AddSink("out", "b", "out")
	b.PlaceAll("e0")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, tp)

	// a: seeds the loop on external input; decrements hop counters coming
	// back on the feedback wire and re-circulates until zero.
	aHandler := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		n := payload.(int)
		if port == "fb" {
			if n == 0 {
				return nil, nil // cycle complete
			}
			n--
		}
		return nil, ctx.Send("toB", n)
	})
	// b: forwards to the sink when the counter hits zero, always echoes
	// back to a.
	bHandler := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		n := payload.(int)
		if n == 0 {
			if err := ctx.Send("out", "done"); err != nil {
				return nil, err
			}
		}
		return nil, ctx.Send("toA", n)
	})
	f.add("a", aHandler, func(c *Config) { c.ProbeRetry = 2 * time.Millisecond })
	f.add("b", bHandler, func(c *Config) { c.ProbeRetry = 2 * time.Millisecond })
	f.start()
	defer f.stop()

	f.emit("in", 1000, 5) // five times around the loop
	f.quiesce("in", vt.Max)
	got := f.awaitSink(1, 15*time.Second)
	if got[0].Payload != "done" {
		t.Errorf("payload = %v", got[0].Payload)
	}
	// Ten hops (5 round trips) with cost 100 + delay 1000 each leg: the
	// final VT reflects the accumulated loop traversals.
	if got[0].VT < 10_000 {
		t.Errorf("sink VT %v implausibly early for 5 loop traversals", got[0].VT)
	}
}

// TestHyperAggressiveFloorsOutputs checks the bias algorithm end to end:
// a hyper-aggressive sender's eager promises, 2 ms past what it knows,
// floor its later output VTs, and the stream stays strictly monotone per
// wire.
func TestHyperAggressiveFloorsOutputs(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	f.add("sender1", passthrough("out"), func(c *Config) {
		c.Silence = silence.Config{Strategy: silence.HyperAggressive, Stride: 1}
	})
	f.add("sender2", passthrough("out"))
	f.add("merger", passthrough("out"), func(c *Config) { c.ProbeRetry = 2 * time.Millisecond })
	f.start()
	defer f.stop()

	// First message establishes a promise with bias; the second arrives
	// within the promised window and must be floored past it.
	f.emit("in1", 1_000_000, "first")
	f.quiesce("in2", vt.Max)
	first := f.awaitSink(1, 10*time.Second)
	// Firing the second message "immediately after" in virtual time: its
	// natural stamp (≈1.012ms) falls inside the promised silence
	// (≈1.102ms + 2ms), so its actual stamp must be pushed past the
	// promise.
	f.emit("in1", 1_010_000, "second")
	f.quiesce("in1", vt.Max)
	second := f.awaitSink(1, 10*time.Second)

	natural := vt.Time(1_010_000 + 100 + 1000 + 1000) // emit + cost + wire delays
	if second[0].VT <= first[0].VT {
		t.Fatalf("outputs not monotone: %v then %v", first[0].VT, second[0].VT)
	}
	if second[0].VT < natural.Add(1_900_000) {
		t.Errorf("second output VT %v not floored past the biased promise (natural ≈%v)",
			second[0].VT, natural)
	}
}

// TestPerWireMonotonicityQuick is a property test: under random
// single-sender workloads with random estimator costs, every wire's output
// VTs are strictly increasing and sequence numbers dense.
func TestPerWireMonotonicityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run property test")
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		tp := fanInTopo(t, 2)
		f := newFabric(t, tp)
		cost0 := vt.Ticks(1 + rng.Int63n(50_000))
		cost1 := vt.Ticks(1 + rng.Int63n(50_000))
		f.add("sender0", passthrough("out"), func(c *Config) { c.Est = estimator.Constant{C: cost0} })
		f.add("sender1", passthrough("out"), func(c *Config) { c.Est = estimator.Constant{C: cost1} })
		f.add("merger", passthrough("out"), func(c *Config) { c.ProbeRetry = time.Millisecond })
		f.start()

		const n = 15
		var t0, t1 vt.Time
		for j := 0; j < n; j++ {
			t0 = t0.Add(vt.Ticks(1 + rng.Int63n(100_000)))
			t1 = t1.Add(vt.Ticks(1 + rng.Int63n(100_000)))
			f.emit("in0", t0, j)
			f.emit("in1", t1, j)
		}
		f.quiesce("in0", vt.Max)
		f.quiesce("in1", vt.Max)
		sunk := f.awaitSink(2*n, 20*time.Second)
		for i := 1; i < len(sunk); i++ {
			if sunk[i].VT <= sunk[i-1].VT || sunk[i].Seq != sunk[i-1].Seq+1 {
				t.Fatalf("seed %d: wire monotonicity violated at %d: %+v then %+v",
					seed, i, sunk[i-1], sunk[i])
			}
		}
		f.stop()
		// Drain any stragglers so the next iteration starts clean.
		_ = msg.Envelope{}
	}
}
