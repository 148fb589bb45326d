package adapt

import (
	"slices"
	"testing"
	"time"

	"repro/internal/vt"
)

func testConfig() Config {
	return Config{
		Quantum:         1000,
		BurnThreshold:   1.0,
		DegradedSampleN: 64,
	}
}

// commitAll accepts every decision and appends it to *ds.
func commitAll(ds *[]Decision) func(Decision) bool {
	return func(d Decision) bool {
		*ds = append(*ds, d)
		return true
	}
}

func TestBoundaryQuantizedStrictlyFuture(t *testing.T) {
	c := New(testConfig(), 8)
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
			c := New(cfg, tc.sampleN)
			for i, s := range tc.steps {
				var ds []Decision
				c.Step(Observation{
					Now:       vt.Time(100 * (i + 1)),
					Wall:      time.Unix(int64(i), 0),
					Delivered: s.delivered,
					BurnRate:  s.burn,
					SampleN:   s.inForce,
				}, commitAll(&ds))
				var got, want []uint64
				for _, d := range ds {
					got = append(got, d.SampleN)
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
	c := New(testConfig(), 8)
	c.Step(Observation{Now: 100, BurnRate: 2.0, SampleN: 8}, func(Decision) bool { return false })
	if st := c.Status(); !st.Degraded || len(st.Decisions) != 0 {
		t.Fatalf("after a refused decision: status %+v, want degraded with an empty ring", st)
	}
	var ds []Decision
	c.Step(Observation{Now: 200, BurnRate: 2.0, SampleN: 8}, commitAll(&ds))
	st := c.Status()
	if !st.Degraded {
		t.Fatal("status not degraded")
	}
	if len(st.Decisions) != 1 || st.Decisions[0] != ds[0] || st.Decisions[0].Seq != 1 || st.Decisions[0].SampleN != 64 {
		t.Fatalf("decisions = %v, want the one committed switch to 1/64 as #1", st.Decisions)
	}
}
