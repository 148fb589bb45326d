package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

func shortParams(mode Mode) Params {
	p := DefaultParams()
	p.Mode = mode
	p.Duration = 3 * time.Second
	return p
}

func TestKernelOrdersEvents(t *testing.T) {
	var k kernel
	var got []int
	k.at(30, func() { got = append(got, 3) })
	k.at(10, func() { got = append(got, 1) })
	k.at(20, func() { got = append(got, 2) })
	// Tie: insertion order wins.
	k.at(20, func() { got = append(got, 4) })
	k.run(100)
	want := []int{1, 2, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if k.now != 30 {
		t.Errorf("clock = %v, want 30", k.now)
	}
}

func TestKernelStopsAtHorizon(t *testing.T) {
	var k kernel
	fired := false
	k.at(50, func() { fired = true })
	k.run(49)
	if fired {
		t.Error("event beyond horizon fired")
	}
	k.run(50)
	if !fired {
		t.Error("event at horizon did not fire")
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	var k kernel
	k.now = 100
	var at float64
	k.at(-5, func() { at = k.now })
	k.run(200)
	if at != 100 {
		t.Errorf("negative delay fired at %v, want now (100)", at)
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	a := Run(shortParams(Deterministic))
	b := Run(shortParams(Deterministic))
	if a != b {
		t.Errorf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	c := Run(Params{Mode: Deterministic, Seed: 2, Duration: 3 * time.Second})
	if a == c {
		t.Error("different seeds produced identical results")
	}
}

func TestModesShareWorkload(t *testing.T) {
	nd := Run(shortParams(NonDeterministic))
	det := Run(shortParams(Deterministic))
	presc := Run(shortParams(Prescient))
	// Same seed → identical arrivals → identical message counts.
	if nd.Messages != det.Messages || det.Messages != presc.Messages {
		t.Errorf("message counts differ: %d %d %d", nd.Messages, det.Messages, presc.Messages)
	}
	if nd.Messages < 5000 {
		t.Errorf("too few messages simulated: %d", nd.Messages)
	}
}

func TestDeterminismOverheadInPaperRange(t *testing.T) {
	nd := Run(shortParams(NonDeterministic))
	det := Run(shortParams(Deterministic))
	presc := Run(shortParams(Prescient))

	overhead := float64(det.AvgLatency-nd.AvgLatency) / float64(nd.AvgLatency)
	if overhead < 0.005 || overhead > 0.10 {
		t.Errorf("deterministic overhead = %.1f%%, expected a few percent (paper: 2.8–4.1%%)", 100*overhead)
	}
	// Prescience helps, but only slightly (paper: "only slightly better").
	if presc.AvgLatency > det.AvgLatency {
		t.Errorf("prescient (%v) slower than deterministic (%v)", presc.AvgLatency, det.AvgLatency)
	}
	// Non-deterministic mode never probes or waits.
	if nd.Probes != 0 || nd.PessimismTotal != 0 {
		t.Errorf("non-deterministic mode probed/waited: %+v", nd)
	}
	if det.Probes == 0 || det.PessimismTotal == 0 {
		t.Error("deterministic mode never probed or waited")
	}
}

func TestLatencyGrowsWithVariability(t *testing.T) {
	pts := RunFig3(Fig3Config{HalfWidths: []int{0, 9}, Duration: 5 * time.Second})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].NonDet.AvgLatency <= pts[0].NonDet.AvgLatency {
		t.Errorf("non-det latency did not grow with variability: %v vs %v",
			pts[0].NonDet.AvgLatency, pts[1].NonDet.AvgLatency)
	}
	if pts[1].Det.AvgLatency <= pts[0].Det.AvgLatency {
		t.Errorf("det latency did not grow with variability: %v vs %v",
			pts[0].Det.AvgLatency, pts[1].Det.AvgLatency)
	}
	// SD labels: hw=0 → 0; hw=9 → 60µs·sqrt((19²−1)/12) ≈ 328µs.
	if pts[0].ComputeSD != 0 {
		t.Errorf("hw=0 SD = %v", pts[0].ComputeSD)
	}
	if math.Abs(pts[1].ComputeSD.Seconds()*1e6-328.6) > 1 {
		t.Errorf("hw=9 SD = %v, want ≈328.6µs", pts[1].ComputeSD)
	}
}

func TestDumbEstimatorOverheadGrowsWithVariability(t *testing.T) {
	pts := RunFig3(Fig3Config{
		HalfWidths:   []int{0, 9},
		Duration:     5 * time.Second,
		DumbEstimate: 600 * time.Microsecond,
	})
	lo, hi := pts[0].OverheadDet(), pts[1].OverheadDet()
	if hi <= lo {
		t.Errorf("dumb-estimator overhead did not grow with variability: %.1f%% → %.1f%%",
			100*lo, 100*hi)
	}
	// Paper: "reaching a high of 13%" at U{1..19}.
	if hi < 0.06 || hi > 0.25 {
		t.Errorf("dumb overhead at max variability = %.1f%%, want ≈13%%", 100*hi)
	}
}

func TestFig4MinimumNearTrueCoefficient(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	f2 := MeasureFig2(1500, 1, 19, 300, 1)
	jit := EmpiricalJitterFromFig2(f2, 60*time.Microsecond)
	pts := RunFig4(Fig4Config{
		Coefs:    []float64{48, 56, 60, 64, 70},
		Jitter:   jit,
		Duration: 8 * time.Second,
	})
	best, worstEdge := time.Duration(math.MaxInt64), time.Duration(0)
	bestCoef := 0.0
	for _, p := range pts {
		if p.Det.AvgLatency < best {
			best = p.Det.AvgLatency
			bestCoef = p.CoefMicros
		}
	}
	if e := pts[0].Det.AvgLatency; e > worstEdge {
		worstEdge = e
	}
	if e := pts[len(pts)-1].Det.AvgLatency; e > worstEdge {
		worstEdge = e
	}
	// The minimum lies in the interior near the true 60 µs (paper: best at
	// 60, flat 60–62), and the sweep edges are worse.
	if bestCoef < 54 || bestCoef > 66 {
		t.Errorf("best coefficient = %v µs, want near 60", bestCoef)
	}
	if worstEdge <= best {
		t.Error("sweep edges not worse than the minimum — no U-shape")
	}
	// Non-det baseline is identical at every point of the sweep.
	for _, p := range pts[1:] {
		if p.NonDet != pts[0].NonDet {
			t.Error("non-det baseline varies across sweep")
			break
		}
	}
}

func TestThroughputSaturationEqualAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run search")
	}
	res := RunThroughput(ThroughputConfig{
		Rates:    []float64{1150, 1200, 1250, 1300},
		Duration: 8 * time.Second,
	})
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	// The paper's headline: determinism costs no throughput at all.
	if res[0].SaturationPerSender != res[1].SaturationPerSender {
		t.Errorf("saturation differs: nondet %.0f vs det %.0f",
			res[0].SaturationPerSender, res[1].SaturationPerSender)
	}
	if res[0].SaturationPerSender < 1150 || res[0].SaturationPerSender > 1300 {
		t.Errorf("saturation %.0f outside the plausible band (merger capacity 1250/s/sender)",
			res[0].SaturationPerSender)
	}
}

func TestFig2Structure(t *testing.T) {
	// The diagnostics the paper reports (R², right skew, no
	// iteration↔residual correlation) are checked on a pinned sample set:
	// β = 60 µs per iteration plus exponential (right-skewed, zero-mean
	// after centring) jitter, iteration counts uniform on {1..19}. A live
	// measurement's skew depends on what else the machine runs.
	rng := stats.NewRNG(7)
	pinned := make([]Fig2Sample, 800)
	for i := range pinned {
		k := 1 + rng.Intn(19)
		pinned[i] = Fig2Sample{Iterations: k, Nanos: 60_000*float64(k) + 20_000*(rng.ExpFloat64()-1)}
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
	live := MeasureFig2(800, 1, 19, 300, 7)
	if live.CoefNsPerIter <= 0 {
		t.Fatalf("measured coefficient = %v", live.CoefNsPerIter)
	}
	byIter := live.EmpiricalSamplesByIteration()
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

func TestEmpiricalJitterFallback(t *testing.T) {
	j := EmpiricalJitter{
		Samples:  map[int][]float64{3: {180_000}},
		Scale:    1,
		Fallback: TickNormalJitter{IterMean: 60_000, TickSD: 0.1},
	}
	rng := stats.NewRNG(1)
	// Sampled path: evenly split total.
	got := j.ServiceReal(3, rng)
	if len(got) != 3 || got[0] != 60_000 {
		t.Errorf("ServiceReal(3) = %v", got)
	}
	// Fallback path for unseen iteration counts.
	got = j.ServiceReal(5, rng)
	if len(got) != 5 {
		t.Errorf("fallback len = %d", len(got))
	}
	// No fallback configured: constant default.
	j2 := EmpiricalJitter{Scale: 1}
	got = j2.ServiceReal(2, rng)
	if len(got) != 2 || got[0] != 60_000 {
		t.Errorf("no-fallback default = %v", got)
	}
}

func TestTickNormalJitterMoments(t *testing.T) {
	j := TickNormalJitter{IterMean: 60_000, TickSD: 0.1}
	rng := stats.NewRNG(3)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += j.ServiceReal(1, rng)[0]
	}
	if mean := sum / n; math.Abs(mean-60_000) > 50 {
		t.Errorf("jitter mean = %v, want ≈60000", mean)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		NonDeterministic: "non-deterministic",
		Deterministic:    "deterministic",
		Prescient:        "prescient",
		Mode(9):          "mode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q", int(m), got)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	var zero Result
	if zero.AvgPessimism() != 0 || zero.ProbesPerMessage() != 0 || zero.OutOfOrderFraction() != 0 {
		t.Error("zero-result accessors should be 0")
	}
	r := Result{Messages: 100, Probes: 150, OutOfOrder: 10, PessimismTotal: time.Millisecond}
	if r.ProbesPerMessage() != 1.5 {
		t.Errorf("ProbesPerMessage = %v", r.ProbesPerMessage())
	}
	if r.OutOfOrderFraction() != 0.1 {
		t.Errorf("OutOfOrderFraction = %v", r.OutOfOrderFraction())
	}
	if r.AvgPessimism() != 10*time.Microsecond {
		t.Errorf("AvgPessimism = %v", r.AvgPessimism())
	}
}

// TestBiasAlgorithmHelpsWhenProbesAreExpensive reproduces §II.G.1's bias
// claim: with asymmetric sender rates, the slow sender eagerly promising
// extra silence reduces pessimism delay — decisively so when silence
// communication is expensive, and not at all when curiosity probes are
// already cheap (which is exactly where the paper positions the
// technique).
func TestBiasAlgorithmHelpsWhenProbesAreExpensive(t *testing.T) {
	expensive := RunBias(BiasConfig{
		Biases:     []time.Duration{0, time.Millisecond, 2 * time.Millisecond},
		Duration:   8 * time.Second,
		ProbeDelay: 150 * time.Microsecond,
	})
	if len(expensive) != 3 {
		t.Fatalf("points = %d", len(expensive))
	}
	noBias, maxBias := expensive[0].Det, expensive[2].Det
	if maxBias.AvgPessimism() >= noBias.AvgPessimism() {
		t.Errorf("bias did not cut pessimism under expensive probes: %v -> %v",
			noBias.AvgPessimism(), maxBias.AvgPessimism())
	}
	if maxBias.AvgLatency >= noBias.AvgLatency {
		t.Errorf("bias did not cut latency under expensive probes: %v -> %v",
			noBias.AvgLatency, maxBias.AvgLatency)
	}
	if maxBias.ProbesPerMessage() >= noBias.ProbesPerMessage() {
		t.Errorf("bias did not cut probe traffic: %.2f -> %.2f",
			noBias.ProbesPerMessage(), maxBias.ProbesPerMessage())
	}

	// With cheap probes, over-biasing hurts (the floored virtual times
	// delay the slow sender's own messages for nothing).
	cheap := RunBias(BiasConfig{
		Biases:   []time.Duration{0, 2 * time.Millisecond},
		Duration: 8 * time.Second,
	})
	if cheap[1].Det.AvgLatency <= cheap[0].Det.AvgLatency {
		t.Errorf("over-biasing with cheap probes should cost latency: %v -> %v",
			cheap[0].Det.AvgLatency, cheap[1].Det.AvgLatency)
	}
}
