// Command tartbench is the repository's benchmark: it drives one fixed
// pipeline through the public tart API under the four workloads named in
// BENCHMARK.json, prints every metric by name and unit, and checks that the
// outputs are correct. See README.md in this directory.
//
//	bash benchmark/run.sh --workload mem_fanin --seed 1 --seconds 26 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// spec mirrors BENCHMARK.json, the single list of what a run must report.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// result is everything one run produced; the last stdout line is its
// four-key summary, -out files keep all of it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Env       envInfo           `json:"env"`
	Notes     []string          `json:"notes,omitempty"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (see -list)")
		seed         = flag.Uint64("seed", 1, "seed for arrivals, keys, preloaded state and fault jitter")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "1: traced run at half phase length that reports the per-layer metrics")
		stateDir     = flag.String("state-dir", "", "parent for the run's state directory (default benchmark/.state)")
		out          = flag.String("out", "", "append the full result (env, sample counts, notes) to this JSON file")
		compare      = flag.Bool("compare", false, "compare two -out files: tartbench -compare A.json B.json")
		list         = flag.Bool("list", false, "list the workloads and why each exists")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "tartbench:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare needs two result files"))
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	}
	if *list {
		for _, w := range sp.Workloads {
			fmt.Printf("%-15s %s\n", w.Name, w.Why)
		}
		return 0
	}
	w, ok := lookupWorkload(*workloadName)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (see -list)", *workloadName))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	parent := *stateDir
	if parent == "" {
		parent = filepath.Join(root, "benchmark", ".state")
	}
	dir := filepath.Join(parent, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	cleanup := func() { os.RemoveAll(dir) }
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	res, err := runWorkload(w, *seed, *seconds, *traceFlag != 0, dir, filepath.Join(root, "benchmark", "results"))
	if err != nil {
		return fail(err)
	}
	wanted := sp.EndToEnd
	if res.Trace {
		wanted = sp.PerLayer
	}
	final := make(map[string]metric, len(wanted))
	for _, ms := range wanted {
		m, ok := res.Metrics[ms.Name]
		if !ok {
			res.Notes = append(res.Notes, "metric "+ms.Name+" was not measured")
			res.Correct = false
			res.Failed++
			m = metric{Unit: ms.Unit}
		}
		final[ms.Name] = metric{Value: m.Value, Unit: ms.Unit}
	}
	printResult(res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": final,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload performs one run and assembles its result.
func runWorkload(w workload, seed uint64, seconds float64, trace bool, dir, resultsDir string) (*result, error) {
	if err := registerReq(); err != nil {
		return nil, err
	}
	env, err := probeEnv(dir)
	if err != nil {
		return nil, err
	}
	if w.durable {
		if err := env.checkDurable(); err != nil {
			return nil, err
		}
	}
	b := &bench{
		w: w, seed: seed, secs: seconds, trace: trace, stateDir: dir,
		tr: &tracer{on: trace, run: int(seed)},
		m:  make(map[string]metric),
	}
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Env: env}
	runErr := b.run()
	if runErr != nil {
		b.note("run aborted: %v", runErr)
	}
	clean, faulted, err := replayProbe(seed)
	probeMiss := int64(0)
	switch {
	case err != nil:
		b.note("%v", err)
		probeMiss = 2 * probeRounds
	case clean != faulted:
		b.note("replay probe: tape digests differ (clean %s, faulted %s)", clean, faulted)
		probeMiss = 2 * probeRounds
	}
	if trace && runErr == nil {
		if err := b.layers(env, resultsDir); err != nil {
			b.note("layers: %v", err)
			runErr = err
		}
	}
	res.Attempted = 2 * 2 * probeRounds
	res.Failed = probeMiss
	if b.s != nil {
		res.Attempted += b.s.attempted.Load()
		res.Failed += b.s.failures()
		if b.s.failures() > 0 {
			b.note("%s", b.s.describeFailures())
		}
	}
	if runErr != nil && res.Failed == 0 {
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	res.Metrics = b.m
	res.Notes = b.notes
	return res, nil
}

func printResult(res *result) {
	mode := "end-to-end (tracing off)"
	if res.Trace {
		mode = "per-layer (traced, half phase length)"
	}
	fmt.Printf("tartbench %s seed=%d seconds=%g: %s\n", res.Workload, res.Seed, res.Seconds, mode)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s %s state=%s fsync_probe=%.1fus\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, runtime.GOARCH, res.Env.StateDirFS, res.Env.FsyncProbeUs)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %16.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// resultFile is the -out format: every run appended in order.
type resultFile struct {
	Results []*result `json:"results"`
}

func appendResult(path string, res *result) error {
	var rf resultFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Results = append(rf.Results, res)
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
