// Benchmarks over the live runtime: the paper's Figure 5 and ablations for
// the design choices DESIGN.md calls out. Custom metrics carry the
// quantities the paper reports:
//
//	go test -bench=. -benchmem
//
// The paper's other studies have one command each: Figure 2, Figures 3 and
// 4, the dumb estimator, saturation and blame through `tartdist -exp`
// (BenchmarkFig2Regression in cmd/tartdist), and the §II.G.1 bias study as
// BenchmarkBiasAlgorithm (bias_bench_test.go).
//
// Figure benches (paper §III):
//
//	BenchmarkFig5Distributed*          — Fig. 5 two-engine TCP run
//
// Ablations:
//
//	BenchmarkSilenceStrategies         — lazy/curiosity/aggressive/hyper
//	BenchmarkCheckpointFrequency       — checkpoint-cadence overhead
//	BenchmarkIncrementalCheckpoint     — delta vs full state capture
//	BenchmarkEstimatorQuality          — constant vs linear estimators
//	BenchmarkSchedulerMerge            — raw merge-scheduling cost
package tart_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	tart "repro"
	"repro/internal/checkpoint"
	"repro/internal/slo"
	"repro/internal/stats"
)

// relay forwards payloads (constant-time service).
type relay struct{ N int }

func (r *relay) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	r.N++
	return nil, ctx.Send("out", payload)
}

// buildFig1 builds the Figure-1 app with the given strategy and placement.
func buildFig1(strategy tart.SilenceStrategy, split bool) *tart.App {
	app := tart.NewApp()
	opts := []tart.ComponentOption{
		tart.WithConstantCost(50 * time.Microsecond),
		tart.WithSilence(strategy),
		tart.WithProbeRetry(time.Millisecond),
	}
	app.Register("sender1", &relay{}, opts...)
	app.Register("sender2", &relay{}, opts...)
	app.Register("merger", &relay{}, opts...)
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	if split {
		app.Place("sender1", "A")
		app.Place("sender2", "A")
		app.Place("merger", "B")
	} else {
		app.PlaceAll("A")
	}
	return app
}

// runCluster pushes n messages through a cluster and returns the mean
// end-to-end latency (from an slo.Hist, the summariser the cmd harnesses
// share).
func runCluster(b *testing.B, app *tart.App, n int, gap time.Duration, opts ...tart.ClusterOption) time.Duration {
	b.Helper()
	cluster, err := tart.Launch(app, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()

	var (
		mu   sync.Mutex
		rec  = slo.NewHist()
		got  int
		done = make(chan struct{})
		t0   = make(map[int]time.Time, n)
	)
	if err := cluster.Sink("out", func(o tart.Output) {
		mu.Lock()
		if s, ok := t0[o.Payload.(int)]; ok {
			rec.Observe(time.Since(s))
		}
		got++
		if got == n {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		b.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	for i := 0; i < n; i += 2 {
		mu.Lock()
		t0[i], t0[i+1] = time.Now(), time.Now()
		mu.Unlock()
		if _, err := in1.Emit(i); err != nil {
			b.Fatal(err)
		}
		if _, err := in2.Emit(i + 1); err != nil {
			b.Fatal(err)
		}
		if gap > 0 {
			time.Sleep(gap)
		}
	}
	_ = in1.End()
	_ = in2.End()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		b.Fatalf("timed out: %d of %d", got, n)
	}
	return rec.Snapshot().Mean()
}

// BenchmarkFig5Distributed runs the real two-engine TCP configuration per
// silence strategy (Figure 5's deterministic series; the non-deterministic
// baseline is conventional code, see cmd/tartdist).
func BenchmarkFig5Distributed(b *testing.B) {
	port := 41000
	for _, tc := range []struct {
		name     string
		strategy tart.SilenceStrategy
	}{
		{name: "lazy", strategy: tart.Lazy},
		{name: "curiosity", strategy: tart.Curiosity},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				port += 4
				mean = runCluster(b, buildFig1(tc.strategy, true), 100, 2*time.Millisecond,
					tart.WithTCP(map[string]string{
						"A": fmt.Sprintf("127.0.0.1:%d", port),
						"B": fmt.Sprintf("127.0.0.1:%d", port+1),
					}),
					tart.WithSourceSilenceEvery(500*time.Microsecond))
			}
			b.ReportMetric(mean.Seconds()*1e3, "latency-ms/msg")
		})
	}
}

// BenchmarkSilenceStrategies ablates the four silence-propagation
// strategies on the single-engine Figure-1 app.
func BenchmarkSilenceStrategies(b *testing.B) {
	for _, tc := range []struct {
		name     string
		strategy tart.SilenceStrategy
	}{
		{name: "lazy", strategy: tart.Lazy},
		{name: "curiosity", strategy: tart.Curiosity},
		{name: "aggressive", strategy: tart.Aggressive},
		{name: "hyper-aggressive", strategy: tart.HyperAggressive},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				mean = runCluster(b, buildFig1(tc.strategy, false), 200, 500*time.Microsecond,
					tart.WithSourceSilenceEvery(250*time.Microsecond))
			}
			b.ReportMetric(mean.Seconds()*1e6, "latency-µs/msg")
		})
	}
}

// BenchmarkCheckpointFrequency ablates the checkpoint cadence: the paper's
// tuning trade-off between failure-free overhead and recovery time.
func BenchmarkCheckpointFrequency(b *testing.B) {
	for _, every := range []time.Duration{0, 100 * time.Millisecond, 10 * time.Millisecond, 2 * time.Millisecond} {
		name := "off"
		if every > 0 {
			name = every.String()
		}
		b.Run(name, func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				opts := []tart.ClusterOption{tart.WithSourceSilenceEvery(250 * time.Microsecond)}
				if every > 0 {
					opts = append(opts, tart.WithCheckpointEvery(every))
				}
				mean = runCluster(b, buildFig1(tart.Curiosity, false), 200, 500*time.Microsecond, opts...)
			}
			b.ReportMetric(mean.Seconds()*1e6, "latency-µs/msg")
		})
	}
}

// BenchmarkEstimatorQuality ablates estimator grades on the real runtime.
func BenchmarkEstimatorQuality(b *testing.B) {
	variants := map[string][]tart.ComponentOption{
		"constant": {tart.WithConstantCost(50 * time.Microsecond)},
		"linear": {tart.WithLinearCost(func(any) tart.Features {
			return tart.Features{1}
		}, []float64{50_000}, 10*time.Microsecond)},
	}
	for name, estOpts := range variants {
		b.Run(name, func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				app := tart.NewApp()
				opts := append([]tart.ComponentOption{
					tart.WithSilence(tart.Curiosity),
					tart.WithProbeRetry(time.Millisecond),
				}, estOpts...)
				app.Register("sender1", &relay{}, opts...)
				app.Register("sender2", &relay{}, opts...)
				app.Register("merger", &relay{}, opts...)
				app.SourceInto("in1", "sender1", "in")
				app.SourceInto("in2", "sender2", "in")
				app.Connect("sender1", "out", "merger", "s1")
				app.Connect("sender2", "out", "merger", "s2")
				app.SinkFrom("out", "merger", "out")
				app.PlaceAll("A")
				mean = runCluster(b, app, 200, 500*time.Microsecond,
					tart.WithSourceSilenceEvery(250*time.Microsecond))
			}
			b.ReportMetric(mean.Seconds()*1e6, "latency-µs/msg")
		})
	}
}

// BenchmarkIncrementalCheckpoint compares full vs delta captures of a
// large table with a small working set — the case the paper's incremental
// checkpointing targets.
func BenchmarkIncrementalCheckpoint(b *testing.B) {
	const tableSize = 100_000
	const touched = 100
	build := func() *checkpoint.Map[string, int] {
		m := checkpoint.NewMap[string, int]()
		for i := 0; i < tableSize; i++ {
			m.Put(fmt.Sprintf("key-%06d", i), i)
		}
		if _, err := m.Snapshot(); err != nil { // clear dirtiness
			b.Fatal(err)
		}
		return m
	}
	b.Run("full", func(b *testing.B) {
		m := build()
		var bytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < touched; j++ {
				m.Put(fmt.Sprintf("key-%06d", (i*touched+j)%tableSize), i)
			}
			data, err := m.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			bytes = len(data)
		}
		b.ReportMetric(float64(bytes), "bytes/capture")
	})
	b.Run("delta", func(b *testing.B) {
		m := build()
		var bytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < touched; j++ {
				m.Put(fmt.Sprintf("key-%06d", (i*touched+j)%tableSize), i)
			}
			data, ok, err := m.Delta()
			if err != nil || !ok {
				b.Fatal(err)
			}
			bytes = len(data)
		}
		b.ReportMetric(float64(bytes), "bytes/capture")
	})
}

// BenchmarkSchedulerMerge measures the raw cost of the deterministic merge
// through the full runtime: messages/second through the single-engine
// Figure-1 pipeline at full blast.
func BenchmarkSchedulerMerge(b *testing.B) {
	var mean time.Duration
	n := 2000
	for i := 0; i < b.N; i++ {
		mean = runCluster(b, buildFig1(tart.Curiosity, false), n, 0,
			tart.WithSourceSilenceEvery(250*time.Microsecond))
	}
	b.ReportMetric(mean.Seconds()*1e6, "latency-µs/msg")
}

// BenchmarkSchedulerMergeObserved is BenchmarkSchedulerMerge with
// WithFlightRecorder: a push consumer, so every engine gets an observer —
// a flight recorder and the push-only families — and an audit log beside
// it. BenchmarkSchedulerMerge asks for no push data, so its engines run
// with no observer: the difference is instrumentation on vs off.
func BenchmarkSchedulerMergeObserved(b *testing.B) {
	var mean time.Duration
	n := 2000
	for i := 0; i < b.N; i++ {
		mean = runCluster(b, buildFig1(tart.Curiosity, false), n, 0,
			tart.WithSourceSilenceEvery(250*time.Microsecond),
			tart.WithFlightRecorder(""))
	}
	b.ReportMetric(mean.Seconds()*1e6, "latency-µs/msg")
}

// BenchmarkRNG measures the deterministic PRNG (sanity baseline).
func BenchmarkRNG(b *testing.B) {
	r := stats.NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
