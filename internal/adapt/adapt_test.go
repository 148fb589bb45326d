package adapt

import (
	"slices"
	"testing"
	"time"

	"repro/internal/silence"
	"repro/internal/vt"
)

func testConfig() Config {
	return Config{
		Quantum:         1000,
		Window:          3,
		MinBlameSeconds: 0.010,
		BlameShare:      0.5,
		QuietWindows:    2,
		Cooldown:        1,
		Bias:            500,
		BurnThreshold:   1.0,
		DegradedSampleN: 64,
	}
}

func newTest(cfg Config) *Controller {
	return newTestN(cfg, 8)
}

func newTestN(cfg Config, sampleN uint64) *Controller {
	return New(cfg, map[string]silence.Config{
		"sender1": {Strategy: silence.Lazy},
		"sender2": {Strategy: silence.Lazy},
	}, sampleN)
}

func TestBoundaryQuantizedStrictlyFuture(t *testing.T) {
	c := newTest(testConfig())
	for _, now := range []vt.Time{0, 1, 999, 1000, 1001, 1500} {
		b := c.boundary(now)
		if int64(b)%1000 != 0 {
			t.Fatalf("boundary(%v) = %v not on quantum grid", now, b)
		}
		if b <= now {
			t.Fatalf("boundary(%v) = %v not strictly future", now, b)
		}
	}
	// Monotonic even if now regresses (loosely aligned engine clocks).
	high := c.boundary(10_000)
	if low := c.boundary(500); low < high {
		t.Fatalf("boundary regressed: %v after %v", low, high)
	}
}

func TestBlameEscalatesAndRecovers(t *testing.T) {
	c := newTest(testConfig())
	blame := func(sec float64) Observation {
		return Observation{Now: 100, SampleN: 8, Blame: map[string]WireBlame{
			"sender2.out>merger.s2": {Upstream: "sender2", Seconds: sec},
		}}
	}
	// First sighting establishes the cumulative baseline; no decision.
	if ds := c.Step(blame(0.100)); len(ds) != 0 {
		t.Fatalf("baseline step decided %v", ds)
	}
	// A 50ms delta dominates the window: escalate sender2 to Aggressive.
	ds := c.Step(blame(0.150))
	if len(ds) != 1 || ds[0].Kind != KindSilence || ds[0].Component != "sender2" {
		t.Fatalf("want silence escalation for sender2, got %v", ds)
	}
	if ds[0].Silence.Strategy != silence.Aggressive {
		t.Fatalf("first escalation = %v, want aggressive", ds[0].Silence.Strategy)
	}
	// The engine does not commit it: the step is taken back, leaves the
	// decision ring, and the next step proposes it again.
	c.Reject(ds[0])
	if cfg, _ := c.StrategyOf("sender2"); cfg.Strategy != silence.Lazy || len(c.Status().Decisions) != 0 {
		t.Fatalf("after reject: strategy %v, decisions %v", cfg.Strategy, c.Status().Decisions)
	}
	ds = c.Step(blame(0.200))
	if len(ds) != 1 || ds[0].Silence.Strategy != silence.Aggressive {
		t.Fatalf("want the escalation proposed again, got %v", ds)
	}
	// Cooldown: the immediately following step stays quiet.
	if ds := c.Step(blame(0.250)); len(ds) != 0 {
		t.Fatalf("cooldown step decided %v", ds)
	}
	// Still dominant: next escalation reaches HyperAggressive with bias.
	ds = c.Step(blame(0.300))
	if len(ds) != 1 || ds[0].Silence.Strategy != silence.HyperAggressive || ds[0].Silence.Bias != 500 {
		t.Fatalf("want hyper-aggressive bias=500, got %v", ds)
	}
	// Quiet blame for QuietWindows+cooldown steps walks it back down.
	var kinds []Decision
	for i := 0; i < 10; i++ {
		kinds = append(kinds, c.Step(blame(0.300))...)
	}
	if len(kinds) < 2 {
		t.Fatalf("expected two de-escalations, got %v", kinds)
	}
	if kinds[0].Silence.Strategy != silence.Aggressive || kinds[1].Silence.Strategy != silence.Lazy {
		t.Fatalf("de-escalation path = %v", kinds)
	}
	cfg, ok := c.StrategyOf("sender2")
	if !ok || cfg.Strategy != silence.Lazy {
		t.Fatalf("final strategy = %v, want baseline lazy", cfg.Strategy)
	}
}

func TestMaxStrategyCapsEscalation(t *testing.T) {
	cfg := testConfig()
	cfg.MaxStrategy = silence.Aggressive
	c := newTest(cfg)
	obs := func(sec float64) Observation {
		return Observation{Now: 100, SampleN: 8, Blame: map[string]WireBlame{
			"sender2.out>merger.s2": {Upstream: "sender2", Seconds: sec},
		}}
	}
	c.Step(obs(0.1))
	ds := c.Step(obs(0.2))
	if len(ds) != 1 || ds[0].Silence.Strategy != silence.Aggressive {
		t.Fatalf("want aggressive, got %v", ds)
	}
	// Never crosses into hyper-aggressive regardless of blame pressure.
	for i := 0; i < 6; i++ {
		for _, d := range c.Step(obs(0.3 + float64(i))) {
			if d.Kind == KindSilence && d.Silence.Strategy > silence.Aggressive {
				t.Fatalf("escalated past cap: %v", d)
			}
		}
	}
}

// TestBurnDegradesAndRestoresSampling steps the sampling signal through
// burn and span-budget sequences. Step i observes wall time i seconds, so a
// step's delivered count minus the previous one is the rate per second;
// each step says which modulus is in force and which one it must propose
// (0: none).
func TestBurnDegradesAndRestoresSampling(t *testing.T) {
	type step struct {
		burn      float64
		delivered int64
		inForce   uint64
		want      uint64
		degraded  bool
	}
	for _, tc := range []struct {
		name    string
		budget  float64 // spans/s; 0 keeps the configured modulus
		sampleN uint64  // the configured modulus
		steps   []step
	}{
		{"burn degrades and recovery restores the configured modulus", 0, 8, []step{
			{burn: 2.5, inForce: 8, want: 64, degraded: true},
			{burn: 0.8, inForce: 64, degraded: true}, // above half the threshold: hold
			{burn: 0.2, inForce: 64, want: 8},
		}},
		{"degradation never samples more", 0, 128, []step{
			{burn: 2.5, inForce: 128, degraded: true},
			{burn: 0.2, inForce: 128},
		}},
		{"a budget yields a power of two", 300, 64, []step{
			{inForce: 64}, // no rate from the first observation
			// 10k deliveries/s × 3 spans each / 300 spans/s = 100 → 1/128.
			{delivered: 10_000, inForce: 64, want: 128},
			{delivered: 20_000, inForce: 128},
		}},
		{"the budget modulus clamps at maxSampleN", 1, 64, []step{
			{inForce: 64},
			{delivered: 1e9, inForce: 64, want: maxSampleN},
		}},
		{"a falling delivered count skips its window", 300, 64, []step{
			{inForce: 64},
			{delivered: 10_000, inForce: 64, want: 128},
			{delivered: 500, inForce: 128}, // a slot recovered and counts from zero
			{delivered: 10_500, inForce: 128},
		}},
		{"the degraded floor holds against a budget that wants 1/1", 1e6, 1, []step{
			{burn: 2.5, inForce: 1, want: 64, degraded: true},
			{burn: 2.5, delivered: 100, inForce: 64, degraded: true},
		}},
		{"restore goes straight to the budget's modulus", 300, 64, []step{
			{burn: 2.5, inForce: 64, degraded: true},
			{burn: 2.5, delivered: 10, inForce: 64, degraded: true}, // budget wants 1/1
			{burn: 0.2, delivered: 20, inForce: 64, want: 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.SpansPerSec = tc.budget
			c := newTestN(cfg, tc.sampleN)
			for i, s := range tc.steps {
				ds := c.Step(Observation{
					Now:       vt.Time(100 * (i + 1)),
					Wall:      time.Unix(int64(i), 0),
					Delivered: s.delivered,
					BurnRate:  s.burn,
					SampleN:   s.inForce,
				})
				var got, want []uint64
				for _, d := range ds {
					if d.Kind == KindSampling {
						got = append(got, d.SampleN)
					}
				}
				if s.want != 0 {
					want = []uint64{s.want}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: proposed moduli %v, want %v (decisions %v)", i, got, want, ds)
				}
				if deg := c.Status().Degraded; deg != s.degraded {
					t.Fatalf("step %d: degraded = %v, want %v", i, deg, s.degraded)
				}
			}
		})
	}
}

func TestStatusSnapshot(t *testing.T) {
	c := newTest(testConfig())
	c.Step(Observation{Now: 100, BurnRate: 2.0, SampleN: 8, Blame: map[string]WireBlame{
		"sender1.out>merger.s1": {Upstream: "sender1", Seconds: 0.001},
	}})
	st := c.Status()
	if !st.Degraded {
		t.Fatal("status not degraded")
	}
	if len(st.Wires) != 1 || st.Wires[0].Upstream != "sender1" || st.Wires[0].Name != "lazy" {
		t.Fatalf("wires = %+v", st.Wires)
	}
	if len(st.Decisions) != 1 {
		t.Fatalf("decisions = %v", st.Decisions)
	}
}
