package tart_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tart "repro"
)

// TestDynamicSilenceStrategySwitch starts the Figure-1 app with LAZY
// propagation (stalls whenever one sender is quiet), then switches the
// senders to Curiosity at runtime — the stalled merge must unblock without
// new data, and behaviour (payloads, virtual times) must be unaffected.
func TestDynamicSilenceStrategySwitch(t *testing.T) {
	app := tart.NewApp()
	reg := func(name string, cost time.Duration) {
		app.Register(name, &relay{},
			tart.WithConstantCost(cost),
			tart.WithSilence(tart.Lazy),
			tart.WithProbeRetry(2*time.Millisecond))
	}
	reg("sender1", 50*time.Microsecond)
	reg("sender2", 50*time.Microsecond)
	reg("merger", 100*time.Microsecond)
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.PlaceAll("main")

	cluster, err := tart.Launch(app,
		tart.WithManualClock(func() tart.VirtualTime { return 50_000_000 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	out := newOutputs()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")

	// One message through sender1; sender2 stays quiet. Under LAZY, the
	// merger cannot learn sender2's silence: pessimism stall.
	if err := in1.EmitAt(1_000_000, 1); err != nil {
		t.Fatal(err)
	}
	if err := in2.Quiesce(30_000_000); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	out.mu.Lock()
	stalled := len(out.got)
	out.mu.Unlock()
	if stalled != 0 {
		t.Fatalf("lazy merge delivered %d messages without silence knowledge", stalled)
	}

	// Switch the quiet sender (and merger, so it probes) to Curiosity at
	// runtime — allowed without a determinism fault.
	if err := cluster.SetSilenceStrategy("merger", tart.Curiosity); err != nil {
		t.Fatal(err)
	}
	if err := cluster.SetSilenceStrategy("sender2", tart.Curiosity); err != nil {
		t.Fatal(err)
	}
	got := out.await(t, 1)
	if got[0].Payload != 1 {
		t.Errorf("payload = %v", got[0].Payload)
	}

	// Switching to hyper-aggressive is rejected: its bias moves output
	// virtual times, so a component runs it from launch or not at all.
	if err := cluster.SetSilenceStrategy("sender1", tart.HyperAggressive); err == nil {
		t.Error("run-time switch into hyper-aggressive accepted")
	}
	if err := cluster.SetSilenceStrategy("ghost", tart.Curiosity); err == nil {
		t.Error("unknown component accepted")
	}
}

// TestManualSilenceSwitchSurvivesFailover: a manual strategy switch is a
// logged determinism fault, so the replacement engine re-derives it from
// the stable log instead of reverting to the launch strategy — whether the
// switch precedes the checkpoint recovery restores or falls in the suffix
// replayed after it.
func TestManualSilenceSwitchSurvivesFailover(t *testing.T) {
	for _, tc := range []struct {
		name            string
		checkpointFirst bool
	}{
		{"switch then checkpoint", false},
		{"checkpoint then switch", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := tart.NewApp()
			app.Register("merger", &relay{}, tart.WithSilence(tart.Lazy))
			app.SourceInto("in", "merger", "in")
			app.SinkFrom("out", "merger", "out")
			app.PlaceAll("main")
			cluster, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()

			checkpoint := func() {
				if _, err := cluster.Checkpoint("main"); err != nil {
					t.Fatal(err)
				}
			}
			if tc.checkpointFirst {
				checkpoint()
			}
			if err := cluster.SetSilenceStrategy("merger", tart.Curiosity); err != nil {
				t.Fatal(err)
			}
			if !tc.checkpointFirst {
				checkpoint()
			}
			if err := cluster.Fail("main"); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Recover("main"); err != nil {
				t.Fatal(err)
			}
			cfg, err := cluster.SilenceConfigOf("merger")
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Strategy != tart.Curiosity {
				t.Errorf("after failover the merger runs %v, want the manually switched %v", cfg.Strategy, tart.Curiosity)
			}
		})
	}
}

// TestConcurrentRecoverStartsOneIncarnation: callers racing to recover one
// failed engine (the supervisor and an operator, say) start exactly one
// replacement; the others are refused rather than starting a second engine
// over the same log and replica.
func TestConcurrentRecoverStartsOneIncarnation(t *testing.T) {
	app := tart.NewApp()
	app.Register("merger", &relay{})
	app.SourceInto("in", "merger", "in")
	app.SinkFrom("out", "merger", "out")
	app.PlaceAll("main")
	cluster, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Fail("main"); err != nil {
		t.Fatal(err)
	}

	const callers = 8
	errs := make(chan error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- cluster.Recover("main")
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	recovered := 0
	for err := range errs {
		if err == nil {
			recovered++
		}
	}
	if recovered != 1 {
		t.Errorf("%d of %d concurrent Recover calls started an incarnation, want exactly 1", recovered, callers)
	}
}

// vault is a component that manages its own serialization via Snapshotter.
type vault struct {
	mu       sync.Mutex
	secrets  map[string]string
	restores int
}

func (v *vault) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	kv := payload.([]string)
	v.mu.Lock()
	v.secrets[kv[0]] = kv[1]
	n := len(v.secrets)
	v.mu.Unlock()
	return nil, ctx.Send("out", n)
}

func (v *vault) Snapshot() ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var sb strings.Builder
	for k, val := range v.secrets {
		fmt.Fprintf(&sb, "%s=%s\n", k, val)
	}
	return []byte(sb.String()), nil
}

func (v *vault) Restore(data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.restores++
	v.secrets = make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if k, val, ok := strings.Cut(line, "="); ok {
			v.secrets[k] = val
		}
	}
	return nil
}

var _ tart.Snapshotter = (*vault)(nil)

// TestSnapshotterComponentRecovery exercises the explicit-Snapshotter
// capture path end to end through a crash.
func TestSnapshotterComponentRecovery(t *testing.T) {
	app := tart.NewApp()
	app.Register("vault", &vault{secrets: map[string]string{}},
		tart.WithConstantCost(20*time.Microsecond))
	app.SourceInto("in", "vault", "put")
	app.SinkFrom("out", "vault", "out")
	app.PlaceAll("main")

	cluster, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	out := newOutputs()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	src, _ := cluster.Source("in")
	if err := src.EmitAt(1_000_000, []string{"alpha", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := src.EmitAt(2_000_000, []string{"beta", "2"}); err != nil {
		t.Fatal(err)
	}
	out.await(t, 2)
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	if err := src.EmitAt(3_000_000, []string{"gamma", "3"}); err != nil {
		t.Fatal(err)
	}
	before := out.await(t, 3)

	if err := cluster.Fail("main"); err != nil {
		t.Fatal(err)
	}
	out2 := newOutputs()
	if err := cluster.Sink("out", out2.fn); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("main"); err != nil {
		t.Fatal(err)
	}
	after := out2.await(t, 1)
	// The stuttered third output must be identical: the vault restored to
	// {alpha, beta} (2 entries) and re-added gamma → 3.
	if after[0].Seq != before[2].Seq || after[0].Payload != before[2].Payload || after[0].VT != before[2].VT {
		t.Errorf("stutter differs: %+v vs %+v", after[0], before[2])
	}
}

// ledger keeps big state in a StateMap (incremental checkpointing).
type ledger struct {
	Balances *tart.StateMap[string, int]
}

func (l *ledger) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	parts := payload.([]string)
	bal, _ := l.Balances.Get(parts[0])
	bal++
	l.Balances.Put(parts[0], bal)
	// Deterministic iteration over the map: SortedKeys.
	total := 0
	for _, k := range l.Balances.SortedKeys() {
		v, _ := l.Balances.Get(k)
		total += v
	}
	return nil, ctx.Send("out", total)
}

// TestStateMapComponentDeltaCheckpoints exercises incremental
// checkpointing through the engine: repeated checkpoints of a StateMap
// component ship deltas, and recovery reassembles full + deltas.
func TestStateMapComponentDeltaCheckpoints(t *testing.T) {
	app := tart.NewApp()
	l := &ledger{Balances: tart.NewStateMap[string, int]()}
	app.Register("ledger", l,
		tart.WithConstantCost(20*time.Microsecond),
		tart.WithState(l.Balances)) // checkpoint exactly the map
	app.SourceInto("in", "ledger", "credit")
	app.SinkFrom("out", "ledger", "out")
	app.PlaceAll("main")

	cluster, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	out := newOutputs()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	src, _ := cluster.Source("in")

	// checkpoint 1 (full), mutate, checkpoint 2 (delta), mutate, crash.
	if err := src.EmitAt(1_000_000, []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	out.await(t, 1)
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	if err := src.EmitAt(2_000_000, []string{"bob"}); err != nil {
		t.Fatal(err)
	}
	out.await(t, 2)
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	if err := src.EmitAt(3_000_000, []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	before := out.await(t, 3)

	if err := cluster.Fail("main"); err != nil {
		t.Fatal(err)
	}
	out2 := newOutputs()
	if err := cluster.Sink("out", out2.fn); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("main"); err != nil {
		t.Fatal(err)
	}
	after := out2.await(t, 1)
	if after[0].Payload != before[2].Payload || after[0].VT != before[2].VT {
		t.Errorf("delta-restored stutter differs: %+v vs %+v", after[0], before[2])
	}
	// alice=2, bob=1 → total 3.
	if after[0].Payload != 3 {
		t.Errorf("restored total = %v, want 3", after[0].Payload)
	}
}

// TestCalibrationEndToEnd drives enough traffic through a deliberately
// mis-calibrated linear estimator to trigger a determinism fault, then
// verifies recovery replays it (the estimator history survives a crash).
func TestCalibrationEndToEnd(t *testing.T) {
	app := tart.NewApp()
	app.Register("worker", &relay{},
		tart.WithLinearCost(func(any) tart.Features { return tart.Features{1} },
			[]float64{1}, time.Microsecond), // absurd initial estimate: 1ns/msg
		tart.WithCalibration(20))
	app.SourceInto("in", "worker", "in")
	app.SinkFrom("out", "worker", "out")
	app.PlaceAll("main")

	cluster, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	out := newOutputs()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	src, _ := cluster.Source("in")
	for i := 1; i <= 60; i++ {
		if err := src.EmitAt(tart.VirtualTime(i*1_000_000), i); err != nil {
			t.Fatal(err)
		}
	}
	out.await(t, 60)
	m, _ := cluster.Metrics("main")
	if m.DeterminismFaults == 0 {
		t.Fatal("no determinism fault committed despite a wildly wrong estimator")
	}

	// Recovery must replay the fault history (estimator state is part of
	// the checkpoint + fault log).
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Fail("main"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("main"); err != nil {
		t.Fatal(err)
	}
	src2, _ := cluster.Source("in")
	if err := src2.EmitAt(100_000_000, 999); err != nil {
		t.Fatal(err)
	}
	out.await(t, 61)
}

// spinSlow slows every spinRelay down: a checkpoint restore rebuilds the
// component, so the switch cannot live in it.
var spinSlow atomic.Bool

// spinRelay forwards its input after spinning 50µs, or 250µs while
// spinSlow is set.
type spinRelay struct{ N int }

func (r *spinRelay) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	r.N++
	spin := 50 * time.Microsecond
	if spinSlow.Load() {
		spin *= 5
	}
	for start := time.Now(); time.Since(start) < spin; {
	}
	return nil, ctx.Send("out", payload)
}

// TestCalibratedComponentRecoversExactly crashes a self-calibrating
// component twice and checks that each recovery replays its outputs
// exactly. The handler runs five times slower while a replacement replays,
// so the refit the replay proposes differs from the predecessor's: it must
// take effect only past the VT frontier the predecessor reached, and it
// must never log a fault that a later recovery would reject.
func TestCalibratedComponentRecoversExactly(t *testing.T) {
	t.Run("scheduler refit", func(t *testing.T) {
		spinSlow.Store(false)
		defer spinSlow.Store(false)
		app := tart.NewApp()
		app.Register("worker", &spinRelay{}, tart.WithLinearCost(func(any) tart.Features { return tart.Features{1} }, []float64{1}, time.Microsecond),
			tart.WithCalibration(5))
		app.SourceInto("in", "worker", "in")
		app.SinkFrom("out", "worker", "out")
		app.PlaceAll("main")

		cluster, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Stop()
		out := newOutputs()
		if err := cluster.Sink("out", out.fn); err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.Checkpoint("main"); err != nil {
			t.Fatal(err)
		}
		src, _ := cluster.Source("in")
		const n = 40
		for i := 1; i <= n; i++ {
			if err := src.EmitAt(tart.VirtualTime(i*1_000_000), i); err != nil {
				t.Fatal(err)
			}
		}
		want := out.await(t, n)
		if m, _ := cluster.Metrics("main"); m.DeterminismFaults == 0 {
			t.Fatal("no determinism fault committed despite a wildly wrong estimator")
		}

		spinSlow.Store(true)
		for round := 1; round <= 2; round++ {
			if err := cluster.Fail("main"); err != nil {
				t.Fatal(err)
			}
			replay := newOutputs()
			if err := cluster.Sink("out", replay.fn); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Recover("main"); err != nil {
				t.Fatalf("recovery %d: %v", round, err)
			}
			got := replay.await(t, n)
			for i := range n {
				if got[i].Seq != want[i].Seq || got[i].VT != want[i].VT || got[i].Payload != want[i].Payload {
					t.Fatalf("recovery %d: replayed output %d = %+v, want %+v", round, i, got[i], want[i])
				}
			}
		}
	})
}

// TestSourceHandleSurvivesFailover verifies the user-held Source facade
// re-binds to the replacement engine after Recover.
func TestSourceHandleSurvivesFailover(t *testing.T) {
	cluster, err := tart.Launch(fig1App(), tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	out := newOutputs()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	if err := in1.EmitAt(1_000_000, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := in2.EmitAt(1_100_000, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	in1.Quiesce(2_000_000)
	in2.Quiesce(2_000_000)
	out.await(t, 2)
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Fail("main"); err != nil {
		t.Fatal(err)
	}
	if _, err := in1.Emit([]string{"x"}); !errors.Is(err, tart.ErrEngineDown) {
		t.Errorf("emit on failed engine = %v, want ErrEngineDown", err)
	}
	if err := cluster.Recover("main"); err != nil {
		t.Fatal(err)
	}
	// The SAME handle works against the replacement engine.
	if err := in1.EmitAt(3_000_000, []string{"c"}); err != nil {
		t.Fatalf("source handle did not re-bind: %v", err)
	}
	if err := in2.EmitAt(3_100_000, []string{"d"}); err != nil {
		t.Fatal(err)
	}
	in1.Quiesce(4_000_000)
	in2.Quiesce(4_000_000)
	out.await(t, 4)
}
