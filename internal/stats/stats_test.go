package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	st := r.State()
	want := make([]uint64, 20)
	for i := range want {
		want[i] = r.Uint64()
	}
	r2 := NewRNG(0)
	r2.SetState(st)
	for i := range want {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("restored stream diverged at %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	c1 := r.Split()
	c2 := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams overlap: %d/100 identical", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d distinct values", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v, want ~1", mean)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	perfect := []float64{2, 4, 6, 8, 10}
	if got := Correlation(xs, perfect); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect correlation = %v", got)
	}
	inverse := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, inverse); math.Abs(got+1) > 1e-9 {
		t.Errorf("inverse correlation = %v", got)
	}
	if got := Correlation(xs, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("degenerate correlation = %v", got)
	}
	if got := Correlation(xs, []float64{1}); got != 0 {
		t.Errorf("mismatched lengths correlation = %v", got)
	}
}

func TestSkewness(t *testing.T) {
	symmetric := []float64{1, 2, 3, 4, 5}
	if got := Skewness(symmetric); math.Abs(got) > 1e-9 {
		t.Errorf("symmetric skewness = %v", got)
	}
	rightSkewed := []float64{1, 1, 1, 1, 1, 1, 1, 1, 10, 20}
	if got := Skewness(rightSkewed); got <= 1 {
		t.Errorf("right-skewed sample skewness = %v, want > 1", got)
	}
	if Skewness([]float64{1, 2}) != 0 {
		t.Error("tiny sample skewness should be 0")
	}
}

func TestOLS1ExactFit(t *testing.T) {
	// y = 61.827 x exactly.
	xs := []float64{1, 5, 10, 19}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 61.827 * x
	}
	fit, err := OLS1(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeffs[0]-61.827) > 1e-9 {
		t.Errorf("coefficient = %v, want 61.827", fit.Coeffs[0])
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestOLSWithIntercept(t *testing.T) {
	// y = 3 + 2x with noise-free data.
	var rows [][]float64
	var ys []float64
	for x := 0.0; x < 10; x++ {
		rows = append(rows, []float64{1, x})
		ys = append(ys, 3+2*x)
	}
	fit, err := OLS(rows, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeffs[0]-3) > 1e-9 || math.Abs(fit.Coeffs[1]-2) > 1e-9 {
		t.Errorf("coeffs = %v, want [3 2]", fit.Coeffs)
	}
}

func TestOLSRecoveryUnderNoise(t *testing.T) {
	r := NewRNG(23)
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		x := float64(1 + r.Intn(19))
		xs = append(xs, x)
		ys = append(ys, 61.827*x+normal(r)*20)
	}
	fit, err := OLS1(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeffs[0]-61.827) > 0.5 {
		t.Errorf("noisy fit coefficient = %v, want ≈61.827", fit.Coeffs[0])
	}
	if fit.R2 < 0.9 {
		t.Errorf("R2 = %v, want > 0.9", fit.R2)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Error("empty OLS should error")
	}
	if _, err := OLS([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := OLS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix should error")
	}
	if _, err := OLS([][]float64{{}}, []float64{1}); err == nil {
		t.Error("zero regressors should error")
	}
	// Collinear columns → singular.
	rows := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, err := OLS(rows, []float64{1, 2, 3}); err == nil {
		t.Error("singular system should error")
	}
}

// Property: OLS residuals are orthogonal to the regressors (normal
// equations hold), for random well-conditioned inputs.
func TestOLSQuickResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(uint64(seed))
		n := 30 + r.Intn(50)
		rows := make([][]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			rows[i] = []float64{1, r.Float64() * 10, r.Float64() * 5}
			ys[i] = r.Float64() * 100
		}
		fit, err := OLS(rows, ys)
		if err != nil {
			return true // singular draws are fine to skip
		}
		for col := 0; col < 3; col++ {
			var dot, scale float64
			for i := 0; i < n; i++ {
				dot += fit.Residuals[i] * rows[i][col]
				scale += math.Abs(rows[i][col])
			}
			if math.Abs(dot) > 1e-6*(1+scale) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// normal draws a standard normal variate by the Box–Muller transform.
func normal(r *RNG) float64 {
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
