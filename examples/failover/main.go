// The failover example demonstrates TART's transparent recovery: it runs
// the Figure-1 pipeline with deterministic input, takes a soft checkpoint
// mid-stream, crashes the engine (losing all volatile state), activates
// the passive replica, and shows that the regenerated outputs are
// bit-identical to the lost ones — the consumer, wrapped in DedupOutputs,
// observes an exactly-once stream that never notices the crash.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	tart "repro"
)

var (
	debugAddr = flag.String("debug", "", "serve the debug HTTP surface (and /rewind time travel) on this host:port")
	linger    = flag.Duration("linger", 0, "keep the cluster alive this long after the demo, so tartctl can inspect it")
)

// Count is a stateful counter component.
type Count struct {
	Seen map[string]int
}

// OnMessage implements tart.Component.
func (c *Count) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	word := payload.(string)
	c.Seen[word]++
	return nil, ctx.Send("out", fmt.Sprintf("%s=%d", word, c.Seen[word]))
}

// Relay is a stateless second stage. It exists to put a component-to-
// component wire in the pipeline: during recovery that wire's replay
// buffer is re-delivered AND the replayed counter regenerates the same
// sends, so the relay's scheduler demonstrably discards the second copies
// as duplicates — visible in the flight recorder below.
type Relay struct{}

// OnMessage implements tart.Component.
func (Relay) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	return nil, ctx.Send("out", payload)
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	app := tart.NewApp()
	app.Register("counter", &Count{Seen: map[string]int{}},
		tart.WithConstantCost(50*time.Microsecond))
	app.Register("relay", &Relay{},
		tart.WithConstantCost(20*time.Microsecond))
	app.SourceInto("words", "counter", "in")
	app.Connect("counter", "out", "relay", "in")
	app.SinkFrom("counts", "relay", "out")
	app.PlaceAll("node")

	// The flight recorder rides along and dumps the ring to
	// <dir>/node-flight.jsonl automatically after the failover replay.
	// TART_ARTIFACT_DIR redirects the dump somewhere a CI job can upload
	// from when the run fails.
	flightDir := os.Getenv("TART_ARTIFACT_DIR")
	if flightDir == "" {
		var err error
		flightDir, err = os.MkdirTemp("", "tart-failover-flight-")
		if err != nil {
			return err
		}
	}
	opts := []tart.ClusterOption{
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithFlightRecorder(flightDir),
		tart.WithSpanTracing(1), // trace every origin: the timeline below needs them all
	}
	if *debugAddr != "" {
		// The debug surface carries /rewind, so a lingering run can be
		// time-traveled from outside with `tartctl rewind` / `tartctl bisect`.
		opts = append(opts,
			tart.WithDebugHTTP(map[string]string{"node": *debugAddr}),
			tart.WithTimeTravel(tart.TimeTravel{History: 16}),
		)
	}
	cluster, err := tart.Launch(app, opts...)
	if err != nil {
		return err
	}
	defer cluster.Stop()

	var (
		mu   sync.Mutex
		raw  []string // every delivery, including stutter
		once []string // deduplicated: what the consumer actually acts on
	)
	outCh := make(chan struct{}, 256)
	deduped := tart.DedupOutputs(func(o tart.Output) {
		mu.Lock()
		once = append(once, fmt.Sprint(o.Payload))
		mu.Unlock()
	})
	sinkFn := func(o tart.Output) {
		mu.Lock()
		raw = append(raw, fmt.Sprintf("#%d %v", o.Seq, o.Payload))
		mu.Unlock()
		deduped(o)
		outCh <- struct{}{}
	}
	if err := cluster.Sink("counts", sinkFn); err != nil {
		return err
	}

	await := func(n int) error {
		deadline := time.After(10 * time.Second)
		for {
			mu.Lock()
			got := len(raw)
			mu.Unlock()
			if got >= n {
				return nil
			}
			select {
			case <-outCh:
			case <-deadline:
				return fmt.Errorf("timed out waiting for %d deliveries", n)
			}
		}
	}

	src, err := cluster.Source("words")
	if err != nil {
		return err
	}
	words := []string{"alpha", "beta", "alpha", "gamma", "beta", "alpha"}
	for i, w := range words[:3] {
		if err := src.EmitAt(tart.VirtualTime((i+1)*1_000_000), w); err != nil {
			return err
		}
	}
	if err := await(3); err != nil {
		return err
	}

	// Soft checkpoint covering exactly the first three messages.
	if _, err := cluster.Checkpoint("node"); err != nil {
		return err
	}
	fmt.Println("checkpoint taken after 3 messages")

	for i, w := range words[3:] {
		if err := src.EmitAt(tart.VirtualTime((i+4)*1_000_000), w); err != nil {
			return err
		}
	}
	if err := await(6); err != nil {
		return err
	}

	mu.Lock()
	before := append([]string(nil), raw...)
	mu.Unlock()
	fmt.Println("\ndeliveries before the crash:")
	for _, r := range before {
		fmt.Println("  ", r)
	}

	// Fail-stop crash: queues, clocks, and un-checkpointed state are gone.
	if err := cluster.Fail("node"); err != nil {
		return err
	}
	fmt.Println("\n*** engine crashed (volatile state lost) ***")

	// Activate the passive replica. The stable input log replays the
	// suffix; determinism regenerates the identical outputs.
	if err := cluster.Recover("node"); err != nil {
		return err
	}
	fmt.Println("*** replica activated; replaying ***")
	if err := await(len(before) + 1); err != nil { // at least some stutter
		return err
	}
	time.Sleep(200 * time.Millisecond) // let the replay drain

	mu.Lock()
	after := append([]string(nil), raw[len(before):]...)
	onceCopy := append([]string(nil), once...)
	mu.Unlock()

	fmt.Println("\nre-deliveries after recovery (output stutter):")
	for _, r := range after {
		fmt.Println("  ", r)
	}
	fmt.Println("\nexactly-once view through DedupOutputs:")
	for _, r := range onceCopy {
		fmt.Println("  ", r)
	}
	if len(onceCopy) != 6 {
		return fmt.Errorf("consumer saw %d unique outputs, want 6", len(onceCopy))
	}

	// The pipeline remains live after recovery.
	if err := src.EmitAt(10_000_000, "delta"); err != nil {
		return err
	}
	if err := await(len(before) + len(after) + 1); err != nil {
		return err
	}
	mu.Lock()
	last := once[len(once)-1]
	mu.Unlock()
	fmt.Printf("\npost-recovery message processed: %s\n", last)
	fmt.Println("recovery was transparent: same state, same outputs, no lost or reordered work")

	printRecoveryStory(cluster, filepath.Join(flightDir, "node-flight.jsonl"))
	printSpanTimeline(cluster)

	if *linger > 0 {
		if addr, err := cluster.DebugAddr("node"); err == nil && addr != "" {
			fmt.Printf("\nlingering %s with debug surface at %s — try:\n", *linger, addr)
			fmt.Printf("  tartctl rewind -addr %s -component counter -vt 3500000\n", addr)
			fmt.Printf("  tartctl rewind -addr %s -component counter -diff 3500000,11000000\n", addr)
			fmt.Printf("  tartctl bisect -addr %s -component counter\n", addr)
		}
		time.Sleep(*linger)
	}
	return nil
}

// printSpanTimeline shows the span layer's view of one replayed input: the
// pre-crash journey and the post-recovery re-delivery live in the same
// per-origin timeline, with the replayed spans tagged. The per-phase
// durations sum to each origin's end-to-end extent exactly — the same
// breakdown `tartctl timeline` renders from a /spans endpoint or dump.
func printSpanTimeline(cluster *tart.Cluster) {
	spans, err := cluster.Spans("node")
	if err != nil || len(spans) == 0 {
		return
	}
	table := tart.CriticalPathTable(spans)
	fmt.Println("\nspan timeline — per-origin critical path (replayed origins carry recovery cost):")
	fmt.Printf("  %-8s %-6s %-12s %-10s %-10s %-10s %s\n",
		"origin", "spans", "total", "queueing", "compute", "replay", "")
	for _, b := range table {
		mark := ""
		if b.Replayed {
			mark = "replayed"
		}
		fmt.Printf("  %-8s %-6d %-12v %-10v %-10v %-10v %s\n",
			b.Origin, b.Spans, b.Total.Round(time.Microsecond),
			b.ByPhase[tart.PhaseQueueing].Round(time.Microsecond),
			b.ByPhase[tart.PhaseCompute].Round(time.Microsecond),
			b.ByPhase[tart.PhaseReplay].Round(time.Microsecond), mark)
	}
	for _, b := range table {
		if b.Replayed {
			fmt.Printf("origin %s was re-delivered during recovery; inspect it with:\n", b.Origin)
			fmt.Printf("  tartctl timeline -file <spans.json> -origin %s\n", b.Origin)
			break
		}
	}
}

// printRecoveryStory renders the flight recorder's view of the failover:
// the checkpoint, the replica activation, the replayed inputs, and the
// duplicate deliveries the dedup layer absorbed — in virtual-time order as
// the recorder captured them.
func printRecoveryStory(cluster *tart.Cluster, dumpPath string) {
	events, err := cluster.TraceEvents("node", 0)
	if err != nil {
		return
	}
	interesting := map[tart.TraceEventKind]bool{
		tart.EvCheckpoint:       true,
		tart.EvFailover:         true,
		tart.EvReplayRequest:    true,
		tart.EvReplayServe:      true,
		tart.EvSourceEmit:       true,
		tart.EvDuplicateDrop:    true,
		tart.EvDeterminismFault: true,
	}
	fmt.Println("\nflight recorder — the recovery story (checkpoint → failover → replay → duplicate drops):")
	faults := 0
	for _, ev := range events {
		if ev.Kind == tart.EvDeterminismFault {
			faults++
		}
		if !interesting[ev.Kind] {
			continue
		}
		fmt.Printf("  %s\n", ev.String())
	}
	// The determinism audit re-derived every delivery chain during replay
	// and compared it against the pre-crash record; silence is the proof
	// that recovery was truly deterministic.
	if faults == 0 {
		fmt.Println("determinism audit: replay matched the recorded delivery chains — 0 faults")
	} else {
		fmt.Printf("determinism audit: %d fault(s) — replay DIVERGED from the original run\n", faults)
	}
	if _, err := os.Stat(dumpPath); err == nil {
		fmt.Printf("full dump written to %s\n", dumpPath)
	}
}
