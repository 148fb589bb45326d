package tart_test

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	tart "repro"
)

// TestAdaptiveDecisionsRederivedAfterRecovery is the adaptive runtime's
// determinism proof: a cluster under WithAdaptiveRuntime takes a live
// blame-driven silence escalation (sender2's wire holds the merger
// blocked), then the engine is crashed and recovered. The recovered
// incarnation must re-derive the identical silence configuration purely
// from the logged determinism fault, without the control loop re-running
// its (wall-clock-driven, irreproducible) policy. Every decision must carry
// a VT epoch boundary on the configured quantum grid.
func TestAdaptiveDecisionsRederivedAfterRecovery(t *testing.T) {
	const quantum = 1_000_000 // 1ms of virtual time

	app := tart.NewApp()
	app.Register("sender1", &crashCounter{Counts: map[string]int{}},
		tart.WithConstantCost(40*time.Microsecond))
	app.Register("sender2", &crashCounter{Counts: map[string]int{}},
		tart.WithConstantCost(40*time.Microsecond))
	app.Register("merger", &crashMerger{},
		tart.WithConstantCost(100*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.PlaceAll("node")

	cluster, err := tart.Launch(app,
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithSpanTracing(1),
		tart.WithAdaptiveRuntime(tart.AdaptiveRuntime{
			PollEvery: 10 * time.Millisecond,
			Quantum:   quantum,
			MinBlame:  time.Microsecond,
			// Hold the escalation for the test's duration, and stay
			// VT-neutral so crash-replay equivalence is unconditional.
			QuietWindows: 10_000,
			MaxStrategy:  tart.Aggressive,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	var merged atomic.Int64 // the merger's outputs, one per sender input
	if err := cluster.Sink("out", func(tart.Output) { merged.Add(1) }); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")

	// Checkpoint now, before any decision fires: recovery restores this
	// pre-adaptation state, so the adapted silence configuration can only
	// come from re-applying the logged fault.
	if _, err := cluster.Checkpoint("node"); err != nil {
		t.Fatal(err)
	}

	hasSilence := func() bool {
		for _, d := range cluster.AdaptStatus().Decisions {
			if d.Kind == "silence" {
				return true
			}
		}
		return false
	}

	round := 0
	vtOf := func(r int) tart.VirtualTime { return tart.VirtualTime((r + 1) * quantum) }
	var sent int64
	emit := func(src *tart.Source, r int, word string) {
		if err := src.EmitAt(vtOf(r), word); err != nil {
			t.Fatal(err)
		}
		sent++
	}

	// Hold the merger blocked on sender2's wire (in2's silence arrives a
	// beat late each round) until a silence escalation commits.
	for ; round < 400 && !hasSilence(); round++ {
		v := vtOf(round)
		emit(in1, round, "oak")
		in1.Quiesce(v + quantum/2)
		time.Sleep(25 * time.Millisecond) // merger blocked on s2's missing silence
		emit(in2, round, "elm")
		in2.Quiesce(v + quantum/2)
		time.Sleep(4 * time.Millisecond)
	}
	if !hasSilence() {
		t.Fatalf("no silence decision fired; decisions: %v", cluster.AdaptStatus().Decisions)
	}

	// Push every engine clock well past the decision's epoch boundary so
	// it applies.
	for end := round + 8; round < end; round++ {
		v := vtOf(round)
		emit(in1, round, "ash")
		emit(in2, round, "fir")
		in1.Quiesce(v + quantum/2)
		in2.Quiesce(v + quantum/2)
	}
	lastQ := vtOf(round-1) + quantum/2
	for deadline := time.Now().Add(10 * time.Second); merged.Load() < sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("merger delivered %d of %d inputs", merged.Load(), sent)
		}
	}
	decisions := cluster.AdaptStatus().Decisions
	for _, d := range decisions {
		if d.EffectiveVT <= 0 || int64(d.EffectiveVT)%quantum != 0 {
			t.Errorf("decision %v effective VT %v is off the %dns epoch grid", d, d.EffectiveVT, quantum)
		}
		if d.Kind == "silence" && d.EffectiveVT > lastQ {
			t.Fatalf("escalation %v takes effect past the replayed range (%v)", d, lastQ)
		}
	}

	// Capture the adapted configuration once it is in force on the live
	// engine.
	var silenceBefore tart.SilenceConfig
	deadline := time.Now().Add(10 * time.Second)
	for {
		silenceBefore, err = cluster.SilenceConfigOf("sender2")
		if err != nil {
			t.Fatal(err)
		}
		if silenceBefore.Strategy == tart.Aggressive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("adapted state never took effect: silence=%+v decisions=%v", silenceBefore, decisions)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Crash and recover: the new incarnation restores the pre-adaptation
	// checkpoint, replays the logged input suffix, and re-applies the
	// logged fault.
	if err := cluster.Fail("node"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("node"); err != nil {
		t.Fatal(err)
	}
	in1.Quiesce(lastQ)
	in2.Quiesce(lastQ)

	deadline = time.Now().Add(15 * time.Second)
	for {
		silenceAfter, err := cluster.SilenceConfigOf("sender2")
		if err != nil {
			t.Fatal(err)
		}
		if silenceAfter == silenceBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered engine did not re-derive the adapted state: silence before %+v after %+v",
				silenceBefore, silenceAfter)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The decision log itself is cluster state and must be unperturbed by
	// the failover (the engines re-derive effects, never decisions).
	if got := cluster.AdaptStatus().Decisions; len(got) < len(decisions) {
		t.Fatalf("decision ring shrank across recovery: %d -> %d", len(decisions), len(got))
	}
}

// TestAdaptiveSilenceRejectedWhileUpstreamDown routes a silence escalation
// while the blamed wire's upstream engine is down, so no engine commits it.
// The controller must take the step back: nothing is counted and the
// strategy gauge keeps showing what the engine runs. Once the engine has
// recovered, the escalation is proposed again and commits, and the gauge
// and the engine agree on it.
func TestAdaptiveSilenceRejectedWhileUpstreamDown(t *testing.T) {
	const (
		quantum  = 1_000_000 // 1ms of virtual time
		wire     = "w3:sender2.out>merger.s2"
		gauge    = `tart_adapt_silence_strategy{wire="` + wire + `"}`
		counted  = `tart_adapt_decisions_total{kind="silence"}`
		deadline = 10 * time.Second
	)
	app := tart.NewApp()
	app.Register("sender1", &crashCounter{Counts: map[string]int{}}, tart.WithConstantCost(40*time.Microsecond))
	app.Register("sender2", &crashCounter{Counts: map[string]int{}}, tart.WithConstantCost(40*time.Microsecond))
	app.Register("merger", &crashMerger{}, tart.WithConstantCost(100*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.Place("sender1", "front")
	app.Place("merger", "front")
	app.Place("sender2", "up")
	cluster, err := tart.Launch(app,
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithDebugHTTP(map[string]string{"front": "127.0.0.1:0"}),
		tart.WithAdaptiveRuntime(tart.AdaptiveRuntime{
			// Long enough that one blame episode and a Fail fit between ticks.
			PollEvery:    300 * time.Millisecond,
			Quantum:      quantum,
			MinBlame:     time.Microsecond,
			QuietWindows: 10_000,
			MaxStrategy:  tart.Aggressive,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	outputs := make(chan tart.Output, 1024)
	if err := cluster.Sink("out", func(o tart.Output) { outputs <- o }); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Checkpoint("up"); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	addr, err := cluster.DebugAddr("front")
	if err != nil {
		t.Fatal(err)
	}

	// metric reads one series from the cluster-level families on /metrics.
	metric := func(series string) float64 {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("no series %s on /metrics", series)
		return 0
	}
	// blameWindow is the controller's windowed blame on the wire, -1 before
	// the first tick has sighted it. AdaptStatus waits out a running tick.
	blameWindow := func() float64 {
		for _, w := range cluster.AdaptStatus().Wires {
			if w.Wire == wire {
				return w.WindowSec
			}
		}
		return -1
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for end := time.Now().Add(deadline); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("timed out waiting for %s; adaptive runtime %+v", what, cluster.AdaptStatus())
			}
		}
	}
	// round holds the merger blocked on s2 for a moment, then releases it.
	round := func(r int) {
		v := tart.VirtualTime((r + 1) * quantum)
		if err := in1.EmitAt(v, "oak"); err != nil {
			t.Fatal(err)
		}
		in1.Quiesce(v + quantum/2)
		time.Sleep(2 * time.Millisecond)
		if err := in2.EmitAt(v, "elm"); err != nil {
			t.Fatal(err)
		}
		in2.Quiesce(v + quantum/2)
	}

	// Right after the tick that first sights the wire, one blame episode and
	// the Fail fit well before the next tick, which escalates sender2.
	waitFor("the wire's first sighting", func() bool { return blameWindow() == 0 })
	round(0)
	for i := 0; i < 2; i++ {
		select {
		case <-outputs:
		case <-time.After(deadline):
			t.Fatal("the blame episode's outputs did not arrive")
		}
	}
	if err := cluster.Fail("up"); err != nil {
		t.Fatal(err)
	}
	waitFor("the tick that escalates sender2", func() bool { return blameWindow() > 0 })
	if got := metric(gauge); got != float64(tart.Curiosity) {
		t.Fatalf("strategy gauge = %v after an escalation no engine committed, want %d (curiosity)", got, tart.Curiosity)
	}
	if got := metric(counted); got != 0 {
		t.Fatalf("%s = %v for an escalation no engine committed", counted, got)
	}

	if err := cluster.Recover("up"); err != nil {
		t.Fatal(err)
	}
	if cfg, err := cluster.SilenceConfigOf("sender2"); err != nil || cfg.Strategy != tart.Curiosity {
		t.Fatalf("recovered sender2 runs %+v (err %v), want curiosity", cfg, err)
	}
	// Proposed again and committed; in force once sender2's clock passes
	// its epoch boundary.
	r := 1
	waitFor("the escalation to take effect", func() bool {
		cfg, err := cluster.SilenceConfigOf("sender2")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Strategy == tart.Aggressive {
			return true
		}
		round(r)
		r++
		time.Sleep(10 * time.Millisecond)
		return false
	})
	if got := metric(gauge); got != float64(tart.Aggressive) {
		t.Fatalf("strategy gauge = %v, engine runs %d (aggressive)", got, tart.Aggressive)
	}
	if got := metric(counted); got != 1 {
		t.Fatalf("%s = %v, want the one committed escalation", counted, got)
	}
}
