package adapt

import (
	"slices"
	"testing"
	"time"

	"repro/internal/vt"
)

func testConfig() Config { return Config{Quantum: 1000, SpansPerSec: 300} }

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

// TestBudgetSetsSampling steps the sampling signal through span-budget
// sequences. Step i observes wall time i seconds, so a step's delivered
// count minus the previous one is the rate per second; each step says which
// modulus is in force and which one it must propose (0: none).
func TestBudgetSetsSampling(t *testing.T) {
	type step struct {
		delivered int64
		inForce   uint64
		want      uint64
	}
	for _, tc := range []struct {
		name    string
		budget  float64 // spans/s
		sampleN uint64  // the configured modulus
		steps   []step
	}{
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
			}
		})
	}
}

func TestStatusSnapshot(t *testing.T) {
	c := New(testConfig(), 8)
	c.Step(Observation{Now: 100, SampleN: 16}, func(Decision) bool { return false })
	if st := c.Status(); len(st.Decisions) != 0 {
		t.Fatalf("after a refused decision: status %+v, want an empty ring", st)
	}
	var ds []Decision
	c.Step(Observation{Now: 200, SampleN: 16}, commitAll(&ds))
	st := c.Status()
	if len(st.Decisions) != 1 || st.Decisions[0] != ds[0] || st.Decisions[0].Seq != 1 || st.Decisions[0].SampleN != 8 {
		t.Fatalf("decisions = %v, want the one committed switch to 1/8 as #1", st.Decisions)
	}
}
