package chaos

import (
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	tart "repro"
)

// ProcConfig parameterizes one role of the process-kill scenario: the
// standard workload split across OS processes, with the sender half
// running over a durable state directory so a SIGKILL mid-traffic can be
// answered by a cold restart (tart.Reopen) of a brand new process.
type ProcConfig struct {
	// Dir is the sender engine's durable state root (WithDurableStore).
	Dir string
	// Addrs maps every scenario engine (left, mid, right) to its TCP
	// listen address. Both processes get the same map.
	Addrs map[string]string
	// Rounds is the workload length (the tape ends with 2×Rounds outputs).
	Rounds int
	// RoundEvery paces the sender's rounds in real time, so a kill has
	// live traffic — and durable checkpoints taken mid-stream — to land
	// between. Default 20ms.
	RoundEvery time.Duration
	// Reopen cold-restarts the sender over an existing Dir instead of
	// launching fresh.
	Reopen bool
	// FlightDir, when non-empty, receives the flight-recorder dumps
	// (<FlightDir>/<engine>-flight.jsonl) the cluster writes when it stops,
	// SIGTERM/SIGINT included, and after a reopened engine's replay.
	FlightDir string
	// Timeout bounds the collector's wait for the full tape (default 60s).
	Timeout time.Duration
	// Progress, when set, is invoked by the collector with the tape length
	// after every deduplicated output — harnesses use it to time a kill
	// against actual traffic rather than a wall-clock guess.
	Progress func(outputs int)
}

func (c ProcConfig) withDefaults() ProcConfig {
	if c.Rounds <= 0 {
		c.Rounds = 16
	}
	if c.RoundEvery <= 0 {
		c.RoundEvery = 20 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// RunSender is the killable half: it hosts only the "left" engine (the
// in1 counter) over a durable state directory, drives the in1 schedule,
// then keeps the source's silence watermark fresh until SIGTERM. The
// round driver is idempotent — an EmitAt rejected as "not after last
// emit" means a previous incarnation already logged that input and replay
// owns it — so a restarted sender simply re-runs the whole schedule and
// the WAL picks up exactly where the kill left it.
func RunSender(cfg ProcConfig) error {
	cfg = cfg.withDefaults()
	opts := []tart.ClusterOption{
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithTCP(cfg.Addrs),
		tart.WithEngines("left"),
		tart.WithDurableStore(cfg.Dir),
		tart.WithCheckpointEvery(15 * time.Millisecond),
		tart.WithFlightRecorder(cfg.FlightDir),
	}
	var cluster *tart.Cluster
	var err error
	if cfg.Reopen {
		cluster, err = tart.Reopen(ScenarioApp(), opts...)
	} else {
		cluster, err = tart.Launch(ScenarioApp(), opts...)
	}
	if err != nil {
		return fmt.Errorf("chaos: sender launch: %w", err)
	}
	defer cluster.Stop()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	in1, err := cluster.Source("in1")
	if err != nil {
		return err
	}
	deadline := time.Now().Add(cfg.Timeout)
	var q tart.VirtualTime
	for r := 0; r < cfg.Rounds; r++ {
		select {
		case <-sig:
			return nil
		default:
		}
		vtBase := tart.VirtualTime((r + 1) * 1_000_000)
		if err := emitWithRetry(in1, vtBase, words[r%len(words)], deadline); err != nil {
			return err
		}
		q = vtBase + 500_000
		_ = in1.Quiesce(q)
		time.Sleep(cfg.RoundEvery)
	}
	// Rounds done; stay up re-asserting the final watermark (promises are
	// volatile — a collector that reconnects after our own restart, or
	// reopens a connection, needs it again) until told to exit.
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-sig:
			return nil
		case <-t.C:
			_ = in1.Quiesce(q)
		}
	}
}

// RunCollector is the surviving half: it hosts "mid" and "right" (the in2
// counter and the merger), drives the in2 schedule, and collects the
// deduplicated output tape. It does not care how many times the sender
// process dies and cold-restarts in the meantime — the merger discards
// replayed duplicates by sequence, so the tape either completes
// byte-identical to a clean run or the run times out.
func RunCollector(cfg ProcConfig) (Tape, error) {
	cfg = cfg.withDefaults()
	cluster, err := tart.Launch(ScenarioApp(),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithTCP(cfg.Addrs),
		tart.WithEngines("mid", "right"),
		tart.WithCheckpointEvery(15*time.Millisecond),
		tart.WithFlightRecorder(cfg.FlightDir),
	)
	if err != nil {
		return nil, fmt.Errorf("chaos: collector launch: %w", err)
	}
	defer cluster.Stop()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	outCh := make(chan OutputRecord, 4*cfg.Rounds)
	deduped := tart.DedupOutputs(func(o tart.Output) {
		outCh <- OutputRecord{Sink: "out", Seq: o.Seq, VT: o.VT, Payload: fmt.Sprint(o.Payload)}
	})
	if err := cluster.Sink("out", deduped); err != nil {
		return nil, err
	}
	in2, err := cluster.Source("in2")
	if err != nil {
		return nil, err
	}

	deadline := time.Now().Add(cfg.Timeout)
	var q tart.VirtualTime
	for r := 0; r < cfg.Rounds; r++ {
		vtBase := tart.VirtualTime((r + 1) * 1_000_000)
		if err := emitWithRetry(in2, vtBase+333_000, words[(r+1)%len(words)], deadline); err != nil {
			return nil, err
		}
		q = vtBase + 500_000
		_ = in2.Quiesce(q)
	}

	var tape Tape
	want := 2 * cfg.Rounds
	pump := time.NewTicker(20 * time.Millisecond)
	defer pump.Stop()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(tape) < want {
		select {
		case rec := <-outCh:
			tape = append(tape, rec)
			if cfg.Progress != nil {
				cfg.Progress(len(tape))
			}
		case <-pump.C:
			_ = in2.Quiesce(q)
		case <-sig:
			return tape, fmt.Errorf("chaos: collector interrupted at %d of %d outputs", len(tape), want)
		case <-timer.C:
			return tape, fmt.Errorf("chaos: collector timed out at %d of %d outputs", len(tape), want)
		}
	}
	return tape, nil
}

// CleanTape computes the reference tape for the scenario workload: the
// fully in-process, fault-free run of the same rounds. The tape is a
// deterministic function of the virtual-time schedule, so it is the
// ground truth every process-split or chaotic run must reproduce.
func CleanTape(rounds int) (Tape, error) {
	res, err := Run(RunOptions{Rounds: rounds})
	if err != nil {
		return nil, err
	}
	return res.Tape, nil
}

// SenderProcessEnv is the environment key that reroutes the chaos test
// binary (and cmd/tartengine) into the sender role.
const SenderProcessEnv = "TART_PROC_HELPER"

// SenderConfigFromEnv assembles a sender's ProcConfig from TART_PROC_*
// environment variables: DIR, ADDRS ("left=host:port,mid=...,right=..."),
// ROUNDS, REOPEN (1), FLIGHT_DIR.
func SenderConfigFromEnv() (ProcConfig, error) {
	cfg := ProcConfig{
		Dir:       os.Getenv("TART_PROC_DIR"),
		Reopen:    os.Getenv("TART_PROC_REOPEN") == "1",
		FlightDir: os.Getenv("TART_PROC_FLIGHT_DIR"),
		Addrs:     make(map[string]string),
	}
	if cfg.Dir == "" {
		return cfg, fmt.Errorf("chaos: TART_PROC_DIR not set")
	}
	for _, kv := range strings.Split(os.Getenv("TART_PROC_ADDRS"), ",") {
		name, addr, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: bad TART_PROC_ADDRS entry %q", kv)
		}
		cfg.Addrs[name] = addr
	}
	if r := os.Getenv("TART_PROC_ROUNDS"); r != "" {
		n, err := strconv.Atoi(r)
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad TART_PROC_ROUNDS: %w", err)
		}
		cfg.Rounds = n
	}
	return cfg, nil
}

// SenderProcessMain is the re-exec entry point: when SenderProcessEnv is
// set, the test binary's TestMain calls this instead of running tests.
// Returns a process exit code.
func SenderProcessMain() int {
	cfg, err := SenderConfigFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := RunSender(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
