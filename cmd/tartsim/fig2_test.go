package main

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestFig2Structure(t *testing.T) {
	// The diagnostics the paper reports (R², right skew, no
	// iteration↔residual correlation) are checked on a pinned sample set:
	// β = 60 µs per iteration plus exponential (right-skewed, zero-mean
	// after centring) jitter, iteration counts uniform on {1..19}. A live
	// measurement's skew depends on what else the machine runs.
	rng := stats.NewRNG(7)
	pinned := make([]fig2Sample, 800)
	for i := range pinned {
		k := 1 + rng.Intn(19)
		pinned[i] = fig2Sample{Iterations: k, Nanos: 60_000*float64(k) + 20_000*(rng.ExpFloat64()-1)}
	}
	r := fitFig2(pinned)
	if r.CoefNsPerIter <= 0 {
		t.Fatalf("coefficient = %v", r.CoefNsPerIter)
	}
	if r.MedianR2 < 0.8 {
		t.Errorf("median-fit R² = %.3f, expected a solidly linear fit (raw R² %.3f)", r.MedianR2, r.R2)
	}
	if r.MedianCoefNsPerIter <= 0 {
		t.Errorf("median coefficient = %v", r.MedianCoefNsPerIter)
	}
	if r.ResidualSkewness < 0 {
		t.Errorf("residual skewness = %.2f, paper reports right-skew", r.ResidualSkewness)
	}
	if math.Abs(r.ResidualCorrelation) > 0.2 {
		t.Errorf("iteration↔residual correlation = %.3f, want ≈0", r.ResidualCorrelation)
	}

	// The live measurement keeps the structural checks.
	live := measureFig2(800, 1, 19, 300, 7)
	if live.CoefNsPerIter <= 0 {
		t.Fatalf("measured coefficient = %v", live.CoefNsPerIter)
	}
	byIter := live.samplesByIteration()
	if len(byIter) < 10 {
		t.Errorf("empirical grouping has only %d iteration counts", len(byIter))
	}
	total := 0
	for _, v := range byIter {
		total += len(v)
	}
	if total != len(live.Samples) {
		t.Errorf("grouping lost samples: %d vs %d", total, len(live.Samples))
	}
}

// BenchmarkFig2Regression measures and fits the Code Body 1 service-time
// model (Figure 2). Reported metrics: fitted ns/iteration and R².
func BenchmarkFig2Regression(b *testing.B) {
	var last fig2Result
	for i := 0; i < b.N; i++ {
		last = measureFig2(1000, 1, 19, 100, uint64(i+1))
	}
	b.ReportMetric(last.CoefNsPerIter, "ns/iter-coef")
	b.ReportMetric(last.MedianR2, "medianR2")
	b.ReportMetric(last.ResidualSkewness, "resid-skew")
}
