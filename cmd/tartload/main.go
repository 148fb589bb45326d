// Command tartload is the open-loop SLO load harness: it drives a
// gate → shards → collect pipeline on a live multi-engine cluster with a
// time-varying arrival schedule, watches end-to-end latency in an HDR
// histogram as it runs, and finishes with an SLO verdict table (exit 1 on
// violation — CI-friendly).
//
//	tartload -scenario diurnal -rate 800 -duration 30s -users 1e6
//	tartload -scenario constant -rate 500 -slo 'p99<20ms,p999<100ms'
//	tartload -scenario slowconsumer -chaos 7         crash an engine every 5s
//	tartload -scenario hotkey -otlp http://localhost:4318/v1/traces
//	tartload -list                                   describe the scenarios
//
// -spans sets the span head-sampling modulus, the one sampling rule: an
// origin is traced when hash(origin) % N == 0. The SLO tracker and the
// OTLP exporter are the harness's own: it measures end-to-end latency at
// the sink and ships what the cluster's Spans hold.
//
// With TART_ARTIFACT_DIR set, the full machine-readable result (report,
// failovers, recovery tax, OTLP counts) is written there as
// tartload-<scenario>.json, and every engine's flight recorder is dumped
// there as <engine>-flight.jsonl when the cluster stops, a SIGTERM or
// SIGINT included. Without it a killed run leaves no dump.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	tart "repro"
	"repro/internal/load"
	"repro/internal/slo"
)

func main() {
	var (
		scenario = flag.String("scenario", "constant", "load scenario (see -list)")
		rate     = flag.Float64("rate", 500, "base arrival rate, requests/sec")
		duration = flag.Duration("duration", 10*time.Second, "emission window")
		users    = flag.String("users", "10000", "key-space size (accepts 1e6)")
		engines  = flag.Int("engines", 3, "engines to spread the pipeline over")
		seed     = flag.Uint64("seed", 1, "arrival/skew RNG seed")
		sloSpec  = flag.String("slo", "p50<5ms,p99<50ms,p999<250ms", "latency objectives")
		budget   = flag.String("budget", "", "error-budget policy: threshold,percent,window (e.g. 50ms,1%,10s)")
		spans    = flag.Int("spans", 0, "span head-sampling modulus: one traced origin in N (0: default 1/64)")
		otlpURL  = flag.String("otlp", "", "export spans OTLP/HTTP to this URL")
		chaos    = flag.Uint64("chaos", 0, "chaos seed: crash engines under a failover supervisor (0: off)")
		chaosGap = flag.Duration("chaos-every", 5*time.Second, "crash cadence with -chaos")
		tcp      = flag.Bool("tcp", false, "inter-engine wires over loopback TCP")
		basePort = flag.Int("port", 42100, "first TCP port with -tcp")
		debug    = flag.Bool("debug", false, "bind a debug HTTP listener per engine (prints addresses)")
		quiet    = flag.Bool("quiet", false, "suppress live progress lines")
		list     = flag.Bool("list", false, "list scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range load.Names() {
			fmt.Printf("  %-14s %s\n", n, load.Describe(n))
		}
		return
	}
	if err := run(*scenario, *rate, *duration, *users, *engines, *seed, *sloSpec, *budget,
		*spans, *otlpURL, *chaos, *chaosGap, *tcp, *basePort, *debug, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "tartload:", err)
		os.Exit(1)
	}
}

func run(scenario string, rate float64, duration time.Duration, usersStr string, engines int,
	seed uint64, sloSpec, budgetSpec string, spans int, otlpURL string,
	chaos uint64, chaosGap time.Duration, tcp bool, basePort int, debug, quiet bool) error {

	sc, err := load.Lookup(scenario)
	if err != nil {
		return err
	}
	users, err := parseUsers(usersStr)
	if err != nil {
		return err
	}
	objectives, err := slo.ParseObjectives(sloSpec)
	if err != nil {
		return err
	}
	policy, err := parseBudget(budgetSpec)
	if err != nil {
		return err
	}

	artifactDir := os.Getenv("TART_ARTIFACT_DIR")
	opts := load.Options{
		Scenario:    sc,
		Rate:        rate,
		Duration:    duration,
		Users:       users,
		Engines:     engines,
		Seed:        seed,
		Objectives:  objectives,
		Budget:      policy,
		SpanSampleN: spans,
		OTLPURL:     otlpURL,
		ChaosSeed:   chaos,
		ChaosEvery:  chaosGap,
		TCP:         tcp,
		BasePort:    basePort,
		Debug:       debug,
		FlightDir:   artifactDir,
	}
	// SIGTERM/SIGINT mid-run: stop the cluster before dying, which with
	// TART_ARTIFACT_DIR set dumps the flight recorders there, so an operator
	// (or CI timeout) killing the harness still gets the last seconds of
	// structured history as a post-mortem artifact.
	opts.OnLaunch = func(cluster *tart.Cluster) {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		go func() {
			s, ok := <-sig
			if !ok {
				return
			}
			cluster.Stop()
			if artifactDir != "" {
				fmt.Fprintf(os.Stderr, "tartload: %v: flight recorders dumped to %s\n", s, artifactDir)
			}
			os.Exit(130)
		}()
	}
	if !quiet {
		opts.Progress = os.Stdout
	}

	fmt.Printf("tartload: scenario=%s rate=%.0f/s duration=%v users=%d engines=%d seed=%d\n",
		sc.Name, rate, duration, users, engines, seed)
	fmt.Printf("tartload: %s\n", load.Describe(sc.Name))
	if chaos != 0 {
		fmt.Printf("tartload: chaos seed=%d, crashing an engine every %v under supervision\n", chaos, chaosGap)
	}

	res, err := load.Run(opts)
	if err != nil {
		return err
	}
	printResult(res)
	if artifactDir != "" {
		if err := writeArtifact(artifactDir, res); err != nil {
			fmt.Fprintln(os.Stderr, "tartload: artifact:", err)
		}
	}
	if !res.Report.OK {
		return fmt.Errorf("SLO violated")
	}
	return nil
}

func printResult(res *load.Result) {
	fmt.Printf("\nschedule   %s\n", res.Schedule)
	fmt.Printf("emitted    %d in %v (%.0f/s achieved)\n", res.Emitted, res.Duration.Round(time.Millisecond), res.AchievedRate)
	fmt.Printf("delivered  %d (dropped at ingest: %d)\n", res.Delivered, res.Dropped)
	if len(res.DebugAddrs) > 0 {
		for eng, addr := range res.DebugAddrs {
			fmt.Printf("debug      %s http://%s/metrics\n", eng, addr)
		}
	}
	fmt.Println()
	res.Report.WriteTable(os.Stdout)

	if len(res.Failovers) > 0 {
		fmt.Printf("\nfailovers (%d):\n", len(res.Failovers))
		for _, f := range res.Failovers {
			status := "recovered"
			if f.Err != "" {
				status = "FAILED: " + f.Err
			}
			fmt.Printf("  %-6s gen=%d cause=%-12s time-to-recover=%-10v %s\n",
				f.Engine, f.Generation, f.Cause, f.TimeToRecover.Round(time.Microsecond), status)
		}
		fmt.Printf("recovery tax (replayed span time by phase, %d spans):\n", res.ReplayedSpans)
		phases := make([]string, 0, len(res.RecoveryTax))
		for p := range res.RecoveryTax {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		for _, p := range phases {
			fmt.Printf("  %-12s %v\n", p, res.RecoveryTax[p].Round(time.Microsecond))
		}
		if len(res.RecoveryTax) == 0 {
			fmt.Println("  (no replayed spans sampled)")
		}
	}
	if res.OTLP.Enqueued > 0 || res.OTLP.Errors > 0 {
		fmt.Printf("\notlp: enqueued=%d exported=%d batches=%d dropped=%d errors=%d\n",
			res.OTLP.Enqueued, res.OTLP.Exported, res.OTLP.Batches, res.OTLP.Dropped, res.OTLP.Errors)
	}
}

func writeArtifact(dir string, res *load.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "tartload-"+res.Scenario+".json"), b, 0o644)
}

// parseUsers accepts plain integers and scientific notation ("1e6").
func parseUsers(s string) (uint64, error) {
	if n, err := strconv.ParseUint(s, 10, 64); err == nil {
		return n, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 1 || f > 1e15 {
		return 0, fmt.Errorf("bad -users %q", s)
	}
	return uint64(f), nil
}

// parseBudget parses "threshold,percent,window" ("50ms,1%,10s") into a
// budget policy; empty means none.
func parseBudget(s string) (*slo.BudgetPolicy, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -budget %q: want threshold,percent,window", s)
	}
	threshold, err := time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("bad -budget threshold: %w", err)
	}
	pctStr := strings.TrimSuffix(strings.TrimSpace(parts[1]), "%")
	pct, err := strconv.ParseFloat(pctStr, 64)
	if err != nil || pct <= 0 || pct >= 100 {
		return nil, fmt.Errorf("bad -budget percent %q", parts[1])
	}
	window, err := time.ParseDuration(strings.TrimSpace(parts[2]))
	if err != nil {
		return nil, fmt.Errorf("bad -budget window: %w", err)
	}
	return &slo.BudgetPolicy{Threshold: threshold, Budget: pct / 100, Window: window}, nil
}
