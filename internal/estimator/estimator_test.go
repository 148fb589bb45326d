package estimator

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/vt"
)

// sentence mimics the paper's Code Body 1 input: a slice of words; the
// single feature is the word count (loop iteration count ξ₁).
type sentence struct{ Words int }

func sentenceFeatures(p any) Features {
	s, ok := p.(sentence)
	if !ok {
		return Features{0}
	}
	return Features{float64(s.Words)}
}

func TestConstantEstimator(t *testing.T) {
	c := Constant{C: 600_000}
	if got := c.Cost(sentence{Words: 5}, 0); got != 600_000 {
		t.Errorf("Cost = %v", got)
	}
	if got := c.MinCost(0); got != 600_000 {
		t.Errorf("MinCost = %v", got)
	}
	// Degenerate constants clamp to 1 tick.
	zero := Constant{C: 0}
	if zero.Cost(nil, 0) != 1 || zero.MinCost(0) != 1 {
		t.Error("zero constant should clamp to 1")
	}
}

func TestLinearEstimator(t *testing.T) {
	// The paper's Equation (2): 61827 ticks per iteration.
	l := NewLinear(sentenceFeatures, []float64{61827}, 61827)
	if got := l.Cost(sentence{Words: 3}, 0); got != 3*61827 {
		t.Errorf("Cost(3 words) = %v, want %v", got, 3*61827)
	}
	if got := l.MinCost(0); got != 61827 {
		t.Errorf("MinCost = %v", got)
	}
	// Unknown payload type gives zero features → clamps to Min.
	if got := l.Cost("garbage", 0); got != 61827 {
		t.Errorf("Cost(garbage) = %v", got)
	}
}

func TestLinearMultiFeature(t *testing.T) {
	// τ = β₀ + β₁ξ₁ + β₂ξ₂ with an intercept feature, Equation (1).
	extract := func(p any) Features {
		s := p.(sentence)
		return Features{1, float64(s.Words), float64(s.Words / 2)}
	}
	l := NewLinear(extract, []float64{1000, 61827, 40}, 1)
	want := vt.Ticks(1000 + 4*61827 + 2*40)
	if got := l.Cost(sentence{Words: 4}, 0); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestLinearCoefficientCopyIsolation(t *testing.T) {
	coeffs := []float64{100}
	l := NewLinear(sentenceFeatures, coeffs, 1)
	coeffs[0] = 999
	if got := l.Cost(sentence{Words: 1}, 0); got != 100 {
		t.Errorf("caller mutation leaked into estimator: %v", got)
	}
}

func TestCalibratedEpochSelection(t *testing.T) {
	c := NewCalibrated(NewLinear(sentenceFeatures, []float64{61000}, 1), Config{})
	if err := c.Apply(Fault{EffectiveVT: 100_000_000, Coeffs: []float64{62000}}); err != nil {
		t.Fatal(err)
	}
	// The paper's example: use the old estimator until VT 100,000,000, the
	// new one from then on.
	if got := c.Cost(sentence{Words: 1}, 99_999_999); got != 61000 {
		t.Errorf("pre-fault cost = %v, want 61000", got)
	}
	if got := c.Cost(sentence{Words: 1}, 100_000_000); got != 62000 {
		t.Errorf("at-fault cost = %v, want 62000", got)
	}
	if got := c.Cost(sentence{Words: 1}, 200_000_000); got != 62000 {
		t.Errorf("post-fault cost = %v, want 62000", got)
	}
}

func TestCalibratedOutOfOrderFaultRejected(t *testing.T) {
	c := NewCalibrated(NewLinear(sentenceFeatures, []float64{61000}, 1), Config{})
	if err := c.Apply(Fault{EffectiveVT: 1000, Coeffs: []float64{62000}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(Fault{EffectiveVT: 500, Coeffs: []float64{63000}}); err == nil {
		t.Error("out-of-order fault should be rejected")
	}
	// Same-VT fault overwrites (idempotent replay of the same fault).
	if err := c.Apply(Fault{EffectiveVT: 1000, Coeffs: []float64{64000}}); err != nil {
		t.Errorf("same-VT fault rejected: %v", err)
	}
	if got := c.Cost(sentence{Words: 1}, 2000); got != 64000 {
		t.Errorf("cost after overwrite = %v", got)
	}
}

func TestCalibratedObserveProposesFault(t *testing.T) {
	// Start with a deliberately wrong coefficient (50000); feed it
	// measurements from the true model (61827/iter) and expect a proposed
	// fault near the truth.
	c := NewCalibrated(NewLinear(sentenceFeatures, []float64{50000}, 1),
		Config{MinSamples: 100})
	rng := stats.NewRNG(1)
	var fault *Fault
	for i := 0; i < 1000 && fault == nil; i++ {
		words := 1 + rng.Intn(19)
		measured := vt.Ticks(61827*float64(words) + normal(rng)*5000)
		if measured < 1 {
			measured = 1
		}
		fault = c.Observe(Features{float64(words)}, measured)
	}
	if fault == nil {
		t.Fatal("no fault proposed after 1000 observations")
	}
	if math.Abs(fault.Coeffs[0]-61827) > 1000 {
		t.Errorf("refit coefficient = %v, want ≈61827", fault.Coeffs[0])
	}
	// Until applied, cost still uses the old coefficients (determinism!).
	if got := c.Cost(sentence{Words: 2}, 0); got != 100000 {
		t.Errorf("cost before Apply = %v, want 100000", got)
	}
	fault.EffectiveVT = 5_000_000
	if err := c.Apply(*fault); err != nil {
		t.Fatal(err)
	}
	if got := c.Cost(sentence{Words: 2}, 5_000_000); got < 120000 {
		t.Errorf("cost after Apply = %v, want ≈123654", got)
	}
}

func TestCalibratedNoFaultWhenAccurate(t *testing.T) {
	// When the initial coefficient is already right, refits inside the 2%
	// band must not generate determinism faults.
	c := NewCalibrated(NewLinear(sentenceFeatures, []float64{61827}, 1),
		Config{MinSamples: 50})
	rng := stats.NewRNG(2)
	for i := 0; i < 500; i++ {
		words := 1 + rng.Intn(19)
		measured := vt.Ticks(61827*float64(words) + normal(rng)*500)
		if f := c.Observe(Features{float64(words)}, measured); f != nil {
			t.Fatalf("observation %d proposed spurious fault %v", i, f)
		}
	}
}

func TestCalibratedStateRoundTrip(t *testing.T) {
	c := NewCalibrated(NewLinear(sentenceFeatures, []float64{61000}, 1), Config{})
	if err := c.Apply(Fault{EffectiveVT: 1000, Coeffs: []float64{62000}}); err != nil {
		t.Fatal(err)
	}
	st := c.State()
	if len(st.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(st.Epochs))
	}

	restored := NewCalibrated(NewLinear(sentenceFeatures, []float64{1}, 1), Config{})
	if err := restored.SetState(st); err != nil {
		t.Fatal(err)
	}
	for _, at := range []vt.Time{0, 999, 1000, 5000} {
		if a, b := c.Cost(sentence{Words: 3}, at), restored.Cost(sentence{Words: 3}, at); a != b {
			t.Errorf("cost at %v differs after restore: %v vs %v", at, a, b)
		}
	}
	if err := restored.SetState(State{}); err == nil {
		t.Error("empty state should be rejected")
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{EffectiveVT: 5, Coeffs: []float64{1.5}}
	if s := f.String(); s == "" {
		t.Error("empty fault string")
	}
}

func TestMateriallyDifferent(t *testing.T) {
	tests := []struct {
		name       string
		old, fresh []float64
		want       bool
	}{
		{name: "identical", old: []float64{100}, fresh: []float64{100}, want: false},
		{name: "within 2%", old: []float64{100}, fresh: []float64{101}, want: false},
		{name: "beyond 2%", old: []float64{100}, fresh: []float64{110}, want: true},
		{name: "length change", old: []float64{100}, fresh: []float64{100, 1}, want: true},
		{name: "near-zero base", old: []float64{0}, fresh: []float64{0.5}, want: true},
		{name: "negative base", old: []float64{-100}, fresh: []float64{-101}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := materiallyDifferent(tt.old, tt.fresh, 0.02); got != tt.want {
				t.Errorf("materiallyDifferent = %v, want %v", got, tt.want)
			}
		})
	}
}

// Property: Cost is deterministic — same payload and VT always produce the
// same cost, regardless of interleaved Observe calls (which must not change
// behaviour until a fault is applied).
func TestCalibratedQuickObserveDoesNotChangeCost(t *testing.T) {
	f := func(seed int64, words uint8) bool {
		w := int(words%19) + 1
		c := NewCalibrated(NewLinear(sentenceFeatures, []float64{61827}, 1),
			Config{MinSamples: 10})
		before := c.Cost(sentence{Words: w}, 12345)
		rng := stats.NewRNG(uint64(seed))
		for i := 0; i < 50; i++ {
			// Wildly wrong measurements; proposals may be generated but are
			// never applied.
			c.Observe(Features{float64(1 + rng.Intn(19))}, vt.Ticks(rng.Intn(1_000_000)+1))
		}
		return c.Cost(sentence{Words: w}, 12345) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MinSamples != 300 || cfg.RefitEvery != 300 || cfg.MaxSamples != 1200 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.RelThreshold != 0.02 {
		t.Errorf("RelThreshold = %v", cfg.RelThreshold)
	}
	custom := Config{MinSamples: 10, RefitEvery: 5, RelThreshold: 0.1, MaxSamples: 20}.withDefaults()
	if custom.MinSamples != 10 || custom.RefitEvery != 5 || custom.MaxSamples != 20 {
		t.Errorf("custom = %+v", custom)
	}
}

// normal draws a standard normal variate by the Box–Muller transform.
func normal(r *stats.RNG) float64 {
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
