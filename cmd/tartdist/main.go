// Command tartdist runs the paper's evaluation. Figure 2 times Code Body 1
// itself; every other study runs the paper's Figure-1 application live: two
// senders on engine A and a merger on engine B, in one process over real
// TCP on localhost, deterministically through TART and, for comparison, as
// a conventional non-deterministic implementation (plain goroutines and
// sockets, arrival-order processing) fed the same draws. The experiments,
// as the experiments table lists them:
//
//	tartdist -exp fig2        Figure 2: service time vs iteration count of Code Body 1 (real measurement)
//	tartdist -exp fig3        Figure 3: latency vs sender compute variability
//	tartdist -exp dumb        §III.A: the constant ("dumb") estimator
//	tartdist -exp fig4        Figure 4: sensitivity to the estimator coefficient
//	tartdist -exp throughput  §III.A: saturation, det vs non-det
//	tartdist -exp fig5        Figure 5: strategies vs non-det (default)
//	tartdist -exp blame       pessimism blame per wire, symmetric vs slow sender
//
// Figure 5 uses constant-time services and ad-hoc (constant) estimators and
// compares non-deterministic execution with lazy, curiosity-driven and
// aggressive silence propagation. The paper's result: lazy silence is far
// slower (the merger can only learn silence from the next data message),
// while curiosity-based propagation stays within ~20% of non-deterministic
// execution. With -spans 1 every deterministic run also prints where its
// end-to-end latency goes, phase by phase (queueing, pessimism, compute,
// transport), so -mode all -spans 1 is the per-strategy
// critical-path sweep. With -debug each engine additionally serves its
// observability surface (/metrics, /healthz, /trace, /topology) on a
// loopback HTTP listener; combine with -hold to keep the cluster alive for
// curl or tartctl status.
//
// The §III studies run the paper's simulated workload on the live runtime:
// seeded Poisson sources, senders that busy-loop k × 60 µs with k drawn per
// message from the seed and carried in the payload, and a 400 µs merger
// (see section3.go for the rate scaling a 2-vCPU machine needs).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	tart "repro"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/trace/span"
)

// flags holds the command line every experiment reads from.
type flags struct {
	mode              string
	requests, buckets int
	rate              float64
	port, spans       int
	debug             bool
	hold, duration    time.Duration
	seed              uint64
}

// experiment is one -exp value. section3 marks the §III studies of the
// live Figure-1 workload, which print its parameters first.
type experiment struct {
	name, desc string
	section3   bool
	run        func(f flags) error
}

// experiments is the one list of what -exp runs, in the order the help
// text and the package doc give it.
var experiments = []experiment{
	{"fig2", "Figure 2: service time vs iteration count of Code Body 1 (real measurement)", false,
		func(f flags) error { return fig2(f.seed) }},
	{"fig3", "Figure 3: latency vs sender compute variability", true,
		func(f flags) error { return fig3(f.seed, f.duration, f.port, false) }},
	{"dumb", `§III.A: the constant ("dumb") estimator`, true,
		func(f flags) error { return fig3(f.seed, f.duration, f.port, true) }},
	{"fig4", "Figure 4: sensitivity to the estimator coefficient", true,
		func(f flags) error { return fig4(f.seed, f.duration, f.port) }},
	{"throughput", "§III.A: saturation, det vs non-det", true,
		func(f flags) error { return throughput(f.seed, f.duration, f.port) }},
	{"fig5", "Figure 5: strategies vs non-det (default)", false, fig5},
	{"blame", "pessimism blame per wire, symmetric vs slow sender", true,
		func(f flags) error { return blame(f.seed, f.duration, f.port) }},
}

// lookup returns the row of experiments named name.
func lookup(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	var f flags
	exp := flag.String("exp", "fig5", "experiment: "+strings.Join(names, "|"))
	flag.StringVar(&f.mode, "mode", "all", "fig5 mode: nondet|lazy|curiosity|aggressive|all")
	flag.IntVar(&f.requests, "requests", 3000, "fig5: total web requests (split across two senders)")
	flag.Float64Var(&f.rate, "rate", 100, "fig5: requests/second per sender")
	flag.IntVar(&f.buckets, "buckets", 10, "fig5: latency buckets printed per run")
	flag.IntVar(&f.port, "port", 39500, "first TCP port to use")
	flag.BoolVar(&f.debug, "debug", false, "fig5: serve /metrics, /healthz, /trace, /spans, /topology per engine")
	flag.DurationVar(&f.hold, "hold", 0, "fig5: keep each TART cluster alive this long after the run (for curl / tartctl status)")
	flag.IntVar(&f.spans, "spans", 0, "fig5: enable span tracing at 1/N head-sampling (1 = every origin) and print the critical-path summary")
	flag.Uint64Var(&f.seed, "seed", 1, "fig2 and the §III studies: seed of the draws")
	flag.DurationVar(&f.duration, "duration", 4*time.Second, "§III studies: emission time per run")
	flag.Parse()
	e, ok := lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "tartdist: unknown experiment %q (want %s)\n", *exp, strings.Join(names, "|"))
		os.Exit(2)
	}
	if e.section3 {
		fmt.Printf("   live: seed %d, %v per run, %.0f msg/s per sender (the paper's %.0f scaled by %.2f),\n",
			f.seed, f.duration, rateScale*paperRate, paperRate, rateScale)
		fmt.Printf("   senders k × %v busy loop on engine A, %v merger on engine B, TCP between\n\n", iterCost, mergeCost)
	}
	if err := e.run(f); err != nil {
		fmt.Fprintln(os.Stderr, "tartdist:", err)
		os.Exit(1)
	}
}

func fig5(f flags) error {
	fmt.Println("== Figure 5: real two-engine distributed run over TCP ==")
	fmt.Printf("   %d web requests, %.0f req/s/sender, senders on engine A, merger on engine B\n\n",
		f.requests, f.rate)
	modes := []string{"nondet", "lazy", "curiosity", "aggressive"}
	if f.mode != "all" {
		modes = []string{f.mode}
	}
	w := workload{
		perSender: [2]int{f.requests / 2, f.requests / 2},
		rates:     [2]float64{f.rate, f.rate},
		// Ad-hoc constant estimators, constant-time services (§III.C).
		senderEst: tart.WithConstantCost(50 * time.Microsecond),
		mergerEst: tart.WithConstantCost(100 * time.Microsecond),
		spans:     f.spans,
		debug:     f.debug,
		hold:      f.hold,
	}
	strategies := map[string]tart.SilenceStrategy{"lazy": tart.Lazy, "curiosity": tart.Curiosity, "aggressive": tart.Aggressive}
	port := f.port
	means := make(map[string]time.Duration)
	for _, m := range modes {
		var res result
		var err error
		if m == "nondet" {
			res, err = runBaseline(w, port)
		} else if s, ok := strategies[m]; ok {
			w.strategy = s
			res, err = runTART(w, loopback(port))
		} else {
			return fmt.Errorf("unknown mode %q", m)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		port += 4
		printWireTable(res.wires)
		if w.spans > 0 && m != "nondet" {
			printSpanSummary(res.paths, w.strategy)
		}
		s := summary(res.lat)
		means[m] = s.Mean()
		printSeries(m, res.lat, s, f.buckets)
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
// out-of-order, probes, duplicates, the pessimism histogram and blame (the
// episodes whose last holdout was this wire's silence frontier).
type wireRow struct {
	delivered  float64
	outOfOrder float64
	probes     float64
	duplicates float64
	sent       float64
	silences   float64
	pessCount  uint64
	pessSum    float64
	blamed     float64
	blameSum   float64
}

// collectWires reads the per-wire rows from each engine's labeled metrics
// registry.
func collectWires(cluster *tart.Cluster, engines []string) map[string]*wireRow {
	rows := map[string]*wireRow{}
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
				r := rows[wire]
				if r == nil {
					r = &wireRow{}
					rows[wire] = r
				}
				switch f.Name {
				case trace.MetricDelivered:
					r.delivered += s.Value
				case trace.MetricOutOfOrder:
					r.outOfOrder += s.Value
				case trace.MetricProbes:
					r.probes += s.Value
				case trace.MetricDuplicates:
					r.duplicates += s.Value
				case trace.MetricSent:
					r.sent += s.Value
				case trace.MetricSilences:
					r.silences += s.Value
				case trace.MetricBlame:
					r.blamed += s.Value
				case trace.MetricPessimism:
					if s.Hist != nil {
						r.pessCount += s.Hist.Count
						r.pessSum += s.Hist.Sum
					}
				case trace.MetricBlameSeconds:
					if s.Hist != nil {
						r.blameSum += s.Hist.Sum
					}
				}
			}
		}
	}
	return rows
}

// printWireTable renders the per-wire observability table.
func printWireTable(rows map[string]*wireRow) {
	if len(rows) == 0 {
		return
	}
	wires := make([]string, 0, len(rows))
	for w := range rows {
		wires = append(wires, w)
	}
	sort.Strings(wires)
	fmt.Println("   -- per-wire registry (delivered/probes/dup/pessimism/blame from receiver, sent/silences from sender) --")
	fmt.Printf("   %-28s %9s %7s %5s %9s %9s %12s %18s\n",
		"wire", "delivered", "probes", "dup", "sent", "silences", "pessimism", "blamed")
	for _, w := range wires {
		r := rows[w]
		pess := "-"
		if r.pessCount > 0 {
			pess = fmt.Sprintf("%.2fms/ep", 1e3*r.pessSum/float64(r.pessCount))
		}
		blame := "-"
		if r.blamed > 0 {
			blame = fmt.Sprintf("%.0f eps %.1fms", r.blamed, 1e3*r.blameSum)
		}
		fmt.Printf("   %-28s %9.0f %7.0f %5.0f %9.0f %9.0f %12s %18s\n",
			w, r.delivered, r.probes, r.duplicates, r.sent, r.silences, pess, blame)
	}
	fmt.Println()
}

// printSpanSummary prints the aggregate critical-path shares of one
// strategy's run plus a sample of traced origins to feed into
// `tartctl timeline`.
func printSpanSummary(table []tart.CriticalPathBreakdown, strategy tart.SilenceStrategy) {
	if len(table) == 0 {
		fmt.Println("   -- no spans recorded --")
		return
	}
	agg := span.Aggregate(table)
	fmt.Printf("   -- %s: critical path over %d traced origins (%d spans) --\n", strategy, len(table), agg.Spans)
	for _, p := range span.Phases() {
		d := agg.ByPhase[p]
		if d == 0 {
			continue
		}
		fmt.Printf("   %-10s %12v  %5.1f%%\n", p, d.Round(time.Microsecond), 100*agg.Share(p))
	}
	for _, b := range table[:min(len(table), 3)] {
		fmt.Printf("   e.g. tartctl timeline -addr <B debug addr> -origin %s   (%v end-to-end)\n",
			b.Origin, b.Total.Round(time.Microsecond))
	}
	fmt.Println()
}

// stage is a Figure-1 component: it busy-loops for its cost, then forwards
// the payload. A sender loops iterSteps per iteration of the payload's k, a
// merger fixedSteps per message; fit, when set, receives each delivery's
// measured cost.
type stage struct {
	Seen       int
	iterSteps  int
	fixedSteps int
	fit        *costFit
}

func (s *stage) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	s.Seen++
	t0 := time.Now()
	k := loops(payload)
	spin(s.fixedSteps+k*s.iterSteps, uint64(s.Seen))
	err := ctx.Send("out", payload)
	if s.fit != nil {
		s.fit.observe(k, time.Since(t0))
	}
	return nil, err
}

// loopback is the addresses of a run from port up: engines A and B's TCP
// listeners, then their debug listeners.
func loopback(port int) [4]string {
	var addrs [4]string
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", port+i)
	}
	return addrs
}

// runTART measures per-request latency through a two-engine TART cluster
// over TCP at addrs (see loopback).
func runTART(w workload, addrs [4]string) (result, error) {
	app := tart.NewApp()
	fit := &costFit{}
	for _, name := range []string{"sender1", "sender2"} {
		app.Register(name, &stage{iterSteps: steps(w.iterCost), fit: fit},
			w.senderEst,
			tart.WithSilence(w.strategy),
			tart.WithProbeRetry(time.Millisecond))
	}
	app.Register("merger", &stage{fixedSteps: steps(w.mergeCost)},
		w.mergerEst,
		tart.WithSilence(w.strategy),
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
	if w.strategy == tart.Lazy {
		// Lazy propagation: silence flows only with data messages — disable
		// the engine's periodic source watermarks too, or the sources would
		// leak silence lazily-configured components never send.
		silenceEvery = 50 * time.Millisecond
	}
	// The flight recorder asks for push data: the per-wire table's
	// pessimism and blame times are distributions only a push consumer
	// gets, and with -debug it gives /trace its content. With
	// TART_ARTIFACT_DIR set the cluster dumps it there when it stops.
	flightDir := os.Getenv("TART_ARTIFACT_DIR")
	opts := []tart.ClusterOption{
		tart.WithTCP(map[string]string{"A": addrs[0], "B": addrs[1]}),
		tart.WithSourceSilenceEvery(silenceEvery),
		tart.WithFlightRecorder(flightDir),
	}
	if w.debug {
		opts = append(opts, tart.WithDebugHTTP(map[string]string{"A": addrs[2], "B": addrs[3]}))
	}
	if w.spans > 0 {
		opts = append(opts, tart.WithSpanTracing(w.spans))
	}
	cluster, err := tart.Launch(app, opts...)
	if err != nil {
		return result{}, err
	}
	defer cluster.Stop()
	// SIGTERM/SIGINT mid-run: stop the cluster before dying, so a killed
	// run still leaves its flight dumps as a post-mortem artifact.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		cluster.Stop()
		if flightDir != "" {
			fmt.Fprintf(os.Stderr, "tartdist: %v: flight recorders dumped to %s\n", s, flightDir)
		}
		os.Exit(130)
	}()
	if w.debug {
		for _, eng := range []string{"A", "B"} {
			if addr, err := cluster.DebugAddr(eng); err == nil && addr != "" {
				fmt.Printf("   debug HTTP for engine %s at http://%s/metrics\n", eng, addr)
			}
		}
	}

	tr := newTracker(w)
	if err := cluster.Sink("out", func(o tart.Output) {
		p, _ := o.Payload.(uint64)
		tr.deliver(p)
	}); err != nil {
		return result{}, err
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	srcs := [2]*tart.Source{in1, in2}
	backlog, err := drive(w, tr, func(s int, p uint64) error {
		_, err := srcs[s].Emit(p)
		return err
	})
	if err != nil {
		return result{}, err
	}
	// Drain: end-of-stream promises release the merge's final messages.
	_ = in1.End()
	_ = in2.End()
	lat, err := tr.wait(60 * time.Second)
	if err != nil {
		return result{}, err
	}
	res := result{lat: lat, backlog: backlog, coef: fit.coef(), wires: collectWires(cluster, []string{"A", "B"})}
	if w.spans > 0 {
		spansA, _ := cluster.Spans("A")
		spansB, _ := cluster.Spans("B")
		res.paths = tart.CriticalPathTable(append(spansA, spansB...))
	}
	if w.hold > 0 {
		fmt.Printf("   holding cluster for %v (curl the debug endpoints now)...\n", w.hold)
		time.Sleep(w.hold)
	}
	// Latencies were recorded in output order — the paper's Figure-5 x-axis
	// is the request number in completion order.
	return res, nil
}
