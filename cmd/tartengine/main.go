// Command tartengine runs one half of the standard chaos workload as its
// own OS process — the cold-restart smoke harness CI drives with real
// kill -9.
//
// Roles:
//
//   - -role sender: hosts the "left" engine (the in1 counter) over a
//     durable state directory (-dir). Kill it with SIGKILL mid-run, then
//     start a new sender with -reopen: the fresh process restores the
//     newest durable checkpoint, replays its WAL suffix, bumps and
//     persists its generation, and rejoins.
//   - -role collector: hosts "mid" and "right" (the in2 counter and the
//     merger), drives the in2 schedule, collects the deduplicated output
//     tape, and compares it against an in-process clean run of the same
//     workload. Exit 0 means the tape is byte-identical — the paper's
//     §II.A criterion across a process boundary; exit 1 means divergence
//     or timeout.
//
// Both roles dump their flight recorders to -flight-dir (default
// $TART_ARTIFACT_DIR or ".") whenever their cluster stops: on SIGTERM or
// SIGINT, on a finished tape, on an error. A reopened sender also dumps
// once its replay is done.
//
// Example (three shells, or the ci process-restart job):
//
//	tartengine -role collector -addrs left=:7101,mid=:7102,right=:7103 &
//	tartengine -role sender    -dir /tmp/state -addrs ... &
//	kill -9 <sender>; tartengine -role sender -reopen -dir /tmp/state -addrs ...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
)

func main() {
	var (
		role      = flag.String("role", "", "sender | collector")
		dir       = flag.String("dir", "", "sender's durable state directory (required for -role sender)")
		addrsFlag = flag.String("addrs", "", "engine TCP addresses: left=host:port,mid=host:port,right=host:port")
		rounds    = flag.Int("rounds", 16, "workload rounds (tape has 2x this many outputs)")
		reopen    = flag.Bool("reopen", false, "cold-restart the sender over an existing -dir")
		timeout   = flag.Duration("timeout", 60*time.Second, "collector: bound on waiting for the full tape")
		flightDir = flag.String("flight-dir", "", "flight-recorder dump directory, written when the cluster stops (default $TART_ARTIFACT_DIR or \".\")")
	)
	flag.Parse()
	if *flightDir == "" {
		if *flightDir = os.Getenv("TART_ARTIFACT_DIR"); *flightDir == "" {
			*flightDir = "."
		}
	}
	addrs := make(map[string]string)
	for _, kv := range strings.Split(*addrsFlag, ",") {
		if name, addr, ok := strings.Cut(kv, "="); ok {
			addrs[name] = addr
		}
	}
	cfg := chaos.ProcConfig{
		Dir: *dir, Addrs: addrs, Rounds: *rounds, Reopen: *reopen,
		Timeout: *timeout, FlightDir: *flightDir,
	}
	switch *role {
	case "sender":
		if *dir == "" {
			fatal(fmt.Errorf("-role sender requires -dir"))
		}
		if err := chaos.RunSender(cfg); err != nil {
			fatal(err)
		}
	case "collector":
		clean, err := chaos.CleanTape(*rounds)
		if err != nil {
			fatal(fmt.Errorf("clean reference run: %w", err))
		}
		tape, err := chaos.RunCollector(cfg)
		if err != nil {
			fatal(err)
		}
		if d := chaos.Diff(clean, tape); d != "" {
			fatal(fmt.Errorf("tape diverged from clean run:\n%s", d))
		}
		fmt.Printf("tartengine: tape of %d outputs byte-identical to clean run\n", len(tape))
	default:
		fatal(fmt.Errorf("unknown -role %q (want sender or collector)", *role))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tartengine:", err)
	os.Exit(1)
}
