package tart

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

// BenchmarkBiasAlgorithm measures the paper's §II.G.1 bias algorithm on
// live engines: with senders of unequal rates, the slower one eagerly
// promises extra silence and delays its own next message. sender1 and
// sender2 relay Poisson sources (1 ms and 8 ms mean gaps) on engine A into
// a merger on engine B, with constant estimators of 40, 40 and 100 µs. A
// Netem delay, uniform up to 10 µs and then up to 150 µs, sits on the A↔B
// link, so curiosity probes are cheap and then expensive. sender2 runs the
// default Curiosity (bias=0s) or, through WithSilence, HyperAggressive,
// whose bias is a constant 2 ms (bias=2ms).
//
// Iteration i runs seed i+1 for four seconds; metrics are means over the
// iterations and -v logs each seed's row. netem-sleep-µs is the delay the
// link actually adds: the mean of time.Sleep over the same uniform draws,
// taken beside the run, since Go timers overshoot by up to a millisecond.
//
//	go test -run '^$' -bench BiasAlgorithm -benchtime 3x -v .
func BenchmarkBiasAlgorithm(b *testing.B) {
	for _, delay := range []time.Duration{10 * time.Microsecond, 150 * time.Microsecond} {
		for _, bias := range []time.Duration{0, 2 * time.Millisecond} {
			b.Run(fmt.Sprintf("delay=%v/bias=%v", delay, bias), func(b *testing.B) {
				var sum biasRun
				for i := 0; i < b.N; i++ {
					r := runBias(b, uint64(i+1), delay, bias, 4*time.Second)
					b.Logf("seed %d: %s", i+1, r)
					sum.add(r)
				}
				n := float64(b.N)
				b.ReportMetric(sum.pessimism/n, "merger-pessimism-s")
				b.ReportMetric(sum.blameS2/n, "s2-blame-s")
				b.ReportMetric(sum.p50[0]/n, "s1-p50-ms")
				b.ReportMetric(sum.p99[0]/n, "s1-p99-ms")
				b.ReportMetric(sum.p50[1]/n, "s2-p50-ms")
				b.ReportMetric(sum.p99[1]/n, "s2-p99-ms")
				b.ReportMetric(sum.probes/n, "probes/msg")
				b.ReportMetric(sum.sleep/n, "netem-sleep-µs")
			})
		}
	}
}

// biasRun is one seed's measurements.
type biasRun struct {
	pessimism, blameS2 float64    // seconds, merger wires
	p50, p99           [2]float64 // ms, per sender
	probes             float64    // per merger delivery
	sleep              float64    // µs, mean time.Sleep of the link's draws
}

func (r *biasRun) add(o biasRun) {
	r.pessimism += o.pessimism
	r.blameS2 += o.blameS2
	r.probes += o.probes
	r.sleep += o.sleep
	for i := range r.p50 {
		r.p50[i] += o.p50[i]
		r.p99[i] += o.p99[i]
	}
}

func (r biasRun) String() string {
	return fmt.Sprintf("merger pessimism %.2f s, s2 blame %.2f s, s1 p50/p99 %.2f/%.2f ms, s2 p50/p99 %.2f/%.2f ms, %.2f probes/msg, netem sleep %.0f µs",
		r.pessimism, r.blameS2, r.p50[0], r.p99[0], r.p50[1], r.p99[1], r.probes, r.sleep)
}

func runBias(b *testing.B, seed uint64, delay, bias, d time.Duration) biasRun {
	b.Helper()
	app := NewApp()
	app.Register("sender1", &relay{}, WithConstantCost(40*time.Microsecond))
	strategy := Curiosity
	if bias > 0 {
		strategy = HyperAggressive
	}
	app.Register("sender2", &relay{}, WithConstantCost(40*time.Microsecond), WithSilence(strategy))
	app.Register("merger", &relay{}, WithConstantCost(100*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.Place("sender1", "A")
	app.Place("sender2", "A")
	app.Place("merger", "B")
	nc := transport.NewNetem(seed)
	nc.SetLinkPlan("A", "B", transport.FaultPlan{Delay: delay})
	// The pessimism and blame times read below are push-only distributions,
	// so the run asks for push data.
	c, err := Launch(app, faults.WithFaults(nc, nil).(ClusterOption), WithFlightRecorder(""))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()

	means := [2]time.Duration{time.Millisecond, 8 * time.Millisecond}
	counts := [2]int{int(d / means[0]), int(d / means[1])}
	var (
		mu      sync.Mutex
		emitted = map[uint64]time.Time{}
		lat     [2][]float64
		got     int
		total   = counts[0] + counts[1]
		done    = make(chan struct{})
	)
	if err := c.Sink("out", func(o Output) {
		p := o.Payload.(uint64)
		mu.Lock()
		defer mu.Unlock()
		lat[p>>32] = append(lat[p>>32], float64(time.Since(emitted[p]))/1e6)
		if got++; got == total {
			close(done)
		}
	}); err != nil {
		b.Fatal(err)
	}

	// The link's sleeps, sampled beside the run.
	stopSleep := make(chan struct{})
	sleepDone := make(chan float64)
	go func() {
		rng := stats.NewRNG(seed ^ 0x5eed)
		var sum time.Duration
		n := 0
		for {
			select {
			case <-stopSleep:
				sleepDone <- float64(sum) / float64(max(n, 1)) / 1e3
				return
			default:
			}
			t0 := time.Now()
			time.Sleep(time.Duration(rng.Float64() * float64(delay)))
			sum += time.Since(t0)
			n++
		}
	}()

	var wg sync.WaitGroup
	for s, name := range []string{"in1", "in2"} {
		src, err := c.Source(name)
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stats.NewRNG(seed*2 + uint64(s))
			due := time.Now()
			for n := 0; n < counts[s]; n++ {
				p := uint64(s)<<32 | uint64(n)
				mu.Lock()
				emitted[p] = time.Now()
				mu.Unlock()
				if _, err := src.Emit(p); err != nil {
					b.Error(err)
					return
				}
				due = due.Add(time.Duration(float64(means[s]) * rng.ExpFloat64()))
				time.Sleep(time.Until(due))
			}
			_ = src.End()
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		b.Fatalf("seed %d: %d of %d outputs", seed, got, total)
	}
	close(stopSleep)
	r := biasRun{sleep: <-sleepDone}

	var delivered, probes float64
	fams, err := c.MetricFamilies("B")
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fams {
		for _, s := range f.Series {
			wire := s.Get("wire")
			if !strings.Contains(wire, ">merger.") {
				continue
			}
			switch f.Name {
			case trace.MetricDelivered:
				delivered += s.Value
			case trace.MetricProbes:
				probes += s.Value
			case trace.MetricPessimism:
				r.pessimism += s.Hist.Sum
			case trace.MetricBlameSeconds:
				if strings.HasSuffix(wire, "merger.s2") {
					r.blameS2 += s.Hist.Sum
				}
			}
		}
	}
	r.probes = probes / delivered
	mu.Lock()
	defer mu.Unlock()
	for i, l := range lat {
		sort.Float64s(l)
		r.p50[i] = stats.Percentile(l, 0.5)
		r.p99[i] = stats.Percentile(l, 0.99)
	}
	return r
}
