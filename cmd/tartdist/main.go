// Command tartdist reproduces Figure 5: a real (not simulated) two-engine
// distributed run of the Figure-1 application over TCP sockets, with
// constant-time services and ad-hoc (constant) estimators, comparing:
//
//   - non-deterministic execution — a conventional implementation (plain
//     goroutines and sockets, arrival-order processing);
//   - deterministic execution with lazy silence propagation;
//   - deterministic execution with curiosity-driven silence propagation;
//   - deterministic execution with aggressive silence propagation.
//
// The paper's result: lazy silence is far slower (the merger can only
// learn silence from the next data message), while curiosity-based
// propagation stays within ~20% of non-deterministic execution.
//
// With -spans 1 every deterministic run also prints where its end-to-end
// latency goes, phase by phase (queueing, pessimism, compute, transport,
// linger), so -mode all -spans 1 is the per-strategy critical-path sweep.
//
// Both engines run in this process but communicate over real TCP on
// localhost, exercising serialization, the reliable-FIFO recovery layer,
// and cross-engine probes end to end.
//
// With -debug each engine additionally serves its observability surface
// (/metrics, /healthz, /trace, /topology) on a loopback HTTP listener;
// combine with -hold to keep the cluster alive for curl or tartctl status.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	tart "repro"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/trace/span"
)

func main() {
	var (
		mode     = flag.String("mode", "all", "mode: nondet|lazy|curiosity|aggressive|all")
		requests = flag.Int("requests", 3000, "total web requests (split across two senders)")
		rate     = flag.Float64("rate", 100, "requests/second per sender")
		buckets  = flag.Int("buckets", 10, "latency buckets printed per run")
		portBase = flag.Int("port", 39500, "first TCP port to use")
		debug    = flag.Bool("debug", false, "serve /metrics, /healthz, /trace, /spans, /topology per engine")
		hold     = flag.Duration("hold", 0, "keep each TART cluster alive this long after the run (for curl / tartctl status)")
		spansN   = flag.Int("spans", 0, "enable span tracing at 1/N head-sampling (1 = every origin) and print the critical-path summary")
	)
	flag.Parse()
	if err := run(*mode, *requests, *rate, *buckets, *portBase, *debug, *hold, *spansN); err != nil {
		fmt.Fprintln(os.Stderr, "tartdist:", err)
		os.Exit(1)
	}
}

func run(mode string, requests int, rate float64, buckets, portBase int, debug bool, hold time.Duration, spansN int) error {
	fmt.Println("== Figure 5: real two-engine distributed run over TCP ==")
	fmt.Printf("   %d web requests, %.0f req/s/sender, senders on engine A, merger on engine B\n\n",
		requests, rate)
	modes := []string{"nondet", "lazy", "curiosity", "aggressive"}
	if mode != "all" {
		modes = []string{mode}
	}
	port := portBase
	means := make(map[string]time.Duration)
	for _, m := range modes {
		var lat []time.Duration
		var err error
		switch m {
		case "nondet":
			lat, err = runBaseline(requests, rate, port)
		case "lazy":
			lat, err = runTART(tart.Lazy, requests, rate, port, debug, hold, spansN)
		case "curiosity":
			lat, err = runTART(tart.Curiosity, requests, rate, port, debug, hold, spansN)
		case "aggressive":
			lat, err = runTART(tart.Aggressive, requests, rate, port, debug, hold, spansN)
		default:
			return fmt.Errorf("unknown mode %q", m)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		port += 4
		s := summary(lat)
		means[m] = s.Mean()
		printSeries(m, lat, s, buckets)
	}
	if len(modes) > 1 {
		printComparison(modes, means)
	}
	return nil
}

// summary folds latencies into a histogram: count, mean and max exact,
// quantiles as bucket upper bounds.
func summary(lat []time.Duration) slo.Snapshot {
	h := slo.NewHist()
	for _, d := range lat {
		h.Observe(d)
	}
	return h.Snapshot()
}

// printSeries prints one run's summary s and its latencies, in completion
// order, averaged over buckets: the Figure-5 x-axis.
func printSeries(mode string, lat []time.Duration, s slo.Snapshot, buckets int) {
	if len(lat) == 0 {
		fmt.Printf("   %s: no measurements\n", mode)
		return
	}
	fmt.Printf("   -- %s: avg %.2f ms, p50 %.2f ms, p95 %.2f ms, p99 %.2f ms over %d requests --\n",
		mode, ms(s.Mean()), ms(s.Quantile(0.50)), ms(s.Quantile(0.95)), ms(s.Quantile(0.99)), s.Count)
	per := max(len(lat)/buckets, 1)
	fmt.Printf("   %-16s %-12s\n", "request range", "avg ms")
	for i := 0; i < len(lat); i += per {
		end := i + per
		if end > len(lat) {
			end = len(lat)
		}
		var sum time.Duration
		for _, v := range lat[i:end] {
			sum += v
		}
		fmt.Printf("   %6d..%-8d %8.2f\n", i+1, end, ms(sum)/float64(end-i))
	}
	fmt.Println()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func printComparison(modes []string, means map[string]time.Duration) {
	base := means["nondet"]
	fmt.Println("   -- comparison (paper: lazy >> curiosity; curiosity < 20% over non-det) --")
	for _, m := range modes {
		mean := means[m]
		if base > 0 && m != "nondet" {
			fmt.Printf("   %-10s %8.2f ms   (%+.0f%% vs non-det)\n", m, ms(mean),
				100*float64(mean-base)/float64(base))
		} else {
			fmt.Printf("   %-10s %8.2f ms\n", m, ms(mean))
		}
	}
}

// wireRow aggregates one wire's registry series across both engines: the
// sending side contributes sent/silences, the receiving side delivered,
// probes, duplicates, and the pessimism histogram.
type wireRow struct {
	delivered  float64
	probes     float64
	duplicates float64
	sent       float64
	silences   float64
	pessCount  uint64
	pessSum    float64
}

// printWireTable renders the per-wire observability table from each
// engine's labeled metrics registry — the registry replaces the ad-hoc
// counters earlier versions of this harness kept by hand.
func printWireTable(cluster *tart.Cluster, engines []string) {
	rows := map[string]*wireRow{}
	row := func(wire string) *wireRow {
		r := rows[wire]
		if r == nil {
			r = &wireRow{}
			rows[wire] = r
		}
		return r
	}
	for _, eng := range engines {
		fams, err := cluster.MetricFamilies(eng)
		if err != nil {
			continue
		}
		for _, f := range fams {
			for _, s := range f.Series {
				wire := s.Get("wire")
				if wire == "" {
					continue
				}
				switch f.Name {
				case trace.MetricDelivered:
					row(wire).delivered += s.Value
				case trace.MetricProbes:
					row(wire).probes += s.Value
				case trace.MetricDuplicates:
					row(wire).duplicates += s.Value
				case trace.MetricSent:
					row(wire).sent += s.Value
				case trace.MetricSilences:
					row(wire).silences += s.Value
				case trace.MetricPessimism:
					if s.Hist != nil {
						row(wire).pessCount += s.Hist.Count
						row(wire).pessSum += s.Hist.Sum
					}
				}
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	wires := make([]string, 0, len(rows))
	for w := range rows {
		wires = append(wires, w)
	}
	sort.Strings(wires)
	fmt.Println("   -- per-wire registry (delivered/probes/dup from receiver, sent/silences from sender) --")
	fmt.Printf("   %-28s %9s %7s %5s %9s %9s %12s\n",
		"wire", "delivered", "probes", "dup", "sent", "silences", "pessimism")
	for _, w := range wires {
		r := rows[w]
		pess := "-"
		if r.pessCount > 0 {
			pess = fmt.Sprintf("%.2fms/ep", 1e3*r.pessSum/float64(r.pessCount))
		}
		fmt.Printf("   %-28s %9.0f %7.0f %5.0f %9.0f %9.0f %12s\n",
			w, r.delivered, r.probes, r.duplicates, r.sent, r.silences, pess)
	}
	fmt.Println()
}

// printSpanSummary merges both engines' span collectors and prints the
// aggregate critical-path shares of one strategy's run plus a sample of
// traced origins to feed into `tartctl timeline`.
func printSpanSummary(cluster *tart.Cluster, strategy tart.SilenceStrategy) {
	spansA, _ := cluster.Spans("A")
	spansB, _ := cluster.Spans("B")
	all := append(spansA, spansB...)
	if len(all) == 0 {
		fmt.Println("   -- no spans recorded --")
		return
	}
	table := tart.CriticalPathTable(all)
	agg := span.Aggregate(table)
	fmt.Printf("   -- %s: critical path over %d traced origins (%d spans) --\n", strategy, len(table), len(all))
	for _, p := range span.Phases() {
		d := agg.ByPhase[p]
		if d == 0 {
			continue
		}
		fmt.Printf("   %-10s %12v  %5.1f%%\n", p, d.Round(time.Microsecond), 100*agg.Share(p))
	}
	n := len(table)
	if n > 3 {
		n = 3
	}
	for _, b := range table[:n] {
		fmt.Printf("   e.g. tartctl timeline -addr <B debug addr> -origin %s   (%v end-to-end)\n",
			b.Origin, b.Total.Round(time.Microsecond))
	}
	fmt.Println()
}

// forward is a constant-time passthrough component.
type forward struct{ Seen int }

func (f *forward) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	f.Seen++
	return nil, ctx.Send("out", payload)
}

// runTART measures per-request latency through a two-engine TART cluster
// over TCP with the given silence strategy.
func runTART(strategy tart.SilenceStrategy, requests int, rate float64, port int, debug bool, hold time.Duration, spansN int) ([]time.Duration, error) {
	app := tart.NewApp()
	// Ad-hoc constant estimators, constant-time services (§III.C).
	for _, name := range []string{"sender1", "sender2"} {
		app.Register(name, &forward{},
			tart.WithConstantCost(50*time.Microsecond),
			tart.WithSilence(strategy),
			tart.WithProbeRetry(time.Millisecond))
	}
	app.Register("merger", &forward{},
		tart.WithConstantCost(100*time.Microsecond),
		tart.WithSilence(strategy),
		tart.WithProbeRetry(time.Millisecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.Place("sender1", "A")
	app.Place("sender2", "A")
	app.Place("merger", "B")

	silenceEvery := 500 * time.Microsecond
	if strategy == tart.Lazy {
		// Lazy propagation: silence flows only with data messages — disable
		// the engine's periodic source watermarks too, or the sources would
		// leak silence lazily-configured components never send.
		silenceEvery = 50 * time.Millisecond
	}
	opts := []tart.ClusterOption{
		tart.WithTCP(map[string]string{
			"A": fmt.Sprintf("127.0.0.1:%d", port),
			"B": fmt.Sprintf("127.0.0.1:%d", port+1),
		}),
		tart.WithSourceSilenceEvery(silenceEvery),
	}
	if debug {
		// The ops surface plus the flight recorder, so /trace has content.
		opts = append(opts,
			tart.WithDebugHTTP(map[string]string{
				"A": fmt.Sprintf("127.0.0.1:%d", port+2),
				"B": fmt.Sprintf("127.0.0.1:%d", port+3),
			}),
			tart.WithFlightRecorder(""))
	}
	if spansN > 0 {
		opts = append(opts, tart.WithSpanTracing(spansN))
	}
	cluster, err := tart.Launch(app, opts...)
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	// SIGTERM/SIGINT mid-run: persist the flight recorders (a no-op without
	// -debug, which is what enables them) before dying, so a killed run
	// still leaves a post-mortem artifact.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		dir := os.Getenv("TART_ARTIFACT_DIR")
		if dir == "" {
			dir = "."
		}
		if err := cluster.DumpFlightRecorders(dir); err == nil {
			fmt.Fprintf(os.Stderr, "tartdist: %v: flight recorders dumped to %s\n", s, dir)
		}
		os.Exit(130)
	}()
	if debug {
		for _, eng := range []string{"A", "B"} {
			if addr, err := cluster.DebugAddr(eng); err == nil && addr != "" {
				fmt.Printf("   debug HTTP for engine %s at http://%s/metrics\n", eng, addr)
			}
		}
	}

	var (
		mu       sync.Mutex
		emitted  = make(map[uint64]time.Time) // request id -> emit time
		lat      []time.Duration
		done     = make(chan struct{})
		received int
	)
	err = cluster.Sink("out", func(o tart.Output) {
		id, _ := o.Payload.(uint64)
		mu.Lock()
		if t0, ok := emitted[id]; ok {
			lat = append(lat, time.Since(t0))
			delete(emitted, id)
		}
		received++
		if received == requests {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}

	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	gap := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	emitLoop := func(src *tart.Source, base uint64) {
		defer wg.Done()
		for i := 0; i < requests/2; i++ {
			id := base + uint64(i)
			mu.Lock()
			emitted[id] = time.Now()
			mu.Unlock()
			if _, err := src.Emit(id); err != nil {
				return
			}
			time.Sleep(gap)
		}
	}
	wg.Add(2)
	go emitLoop(in1, 0)
	go emitLoop(in2, 1_000_000)
	wg.Wait()
	// Drain: end-of-stream promises release the merge's final messages.
	_ = in1.End()
	_ = in2.End()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("timed out: %d of %d outputs", received, requests)
	}
	printWireTable(cluster, []string{"A", "B"})
	if spansN > 0 {
		printSpanSummary(cluster, strategy)
	}
	if hold > 0 {
		fmt.Printf("   holding cluster for %v (curl the debug endpoints now)...\n", hold)
		time.Sleep(hold)
	}
	// Latencies were recorded in output order — the paper's Figure-5 x-axis
	// is the request number in completion order.
	return lat, nil
}
