package tart_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	tart "repro"
	"repro/internal/chaos"
	"repro/internal/faults"
	"repro/internal/transport"
)

// TestChaosOracleMultiSeed is the capstone robustness check: the same
// seeded workload runs once cleanly and then under several seeded chaos
// schedules (crash–restarts detected and recovered by the failover
// supervisor alone, partitions with timed heals, link duplicate/delay
// plans, WAL disk faults). Every chaotic run's deduplicated output tape
// must be byte-identical to the clean run's — the paper's §II.A
// equivalence criterion — and must include at least one failover that the
// supervisor drove end to end (the harness never calls Fail/Recover).
func TestChaosOracleMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos soak")
	}
	const rounds = 12

	clean, err := chaos.Run(chaos.RunOptions{Rounds: rounds})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if len(clean.Tape) != 2*rounds {
		t.Fatalf("clean tape has %d outputs, want %d", len(clean.Tape), 2*rounds)
	}

	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := chaos.Run(chaos.RunOptions{
				Rounds:     rounds,
				RoundEvery: 200 * time.Millisecond, // keep the workload live across the schedule
				Chaos: &chaos.Config{
					Seed:            seed,
					Crashes:         2,
					Partitions:      1,
					WALFaults:       1,
					LinkFaults:      true,
					DoubleCrashProb: 0.5,
					EventEvery:      400 * time.Millisecond,
					PartitionHeal:   250 * time.Millisecond,
				},
			})
			if err != nil {
				t.Fatalf("chaotic run (events so far %+v): %v", eventsOf(res), err)
			}
			if d := chaos.Diff(clean.Tape, res.Tape); d != "" {
				t.Errorf("oracle violated:\n%s\nevents: %+v", d, res.Events)
			}
			if res.Supervised < 1 {
				t.Errorf("no supervisor-driven failover completed; events: %+v, status: %+v",
					res.Events, res.Status)
			}
			var mean time.Duration
			for _, ttr := range res.Recoveries {
				if ttr <= 0 {
					t.Errorf("non-positive time-to-recover %v", ttr)
				}
				mean += ttr / time.Duration(len(res.Recoveries))
			}
			// The row of EXPERIMENTS' chaos table: run with -v to print it.
			t.Logf("seed %d: %d events, %d supervised failovers, %d WAL faults fired, mean time-to-recover %v",
				seed, len(res.Events), res.Supervised, res.WALFaults, mean.Round(10*time.Microsecond))
		})
	}
}

// TestChaosOracleTraced reruns the chaos soak with span tracing on every
// engine, one origin in two sampled. Sampling changes which origins are
// traced, never what the application computes: every chaotic traced tape
// must stay byte-identical to the plain clean reference, across
// supervisor-driven failovers whose recovered incarnations re-stamp each
// replayed input's trace mark from its logged origin.
func TestChaosOracleTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed traced chaos soak")
	}
	const rounds = 12
	clean, err := chaos.Run(chaos.RunOptions{Rounds: rounds})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := chaos.Run(chaos.RunOptions{
				Rounds:       rounds,
				RoundEvery:   200 * time.Millisecond,
				ExtraOptions: []tart.ClusterOption{tart.WithSpanTracing(2)},
				Chaos: &chaos.Config{
					Seed:            seed,
					Crashes:         2,
					Partitions:      1,
					WALFaults:       1,
					LinkFaults:      true,
					DoubleCrashProb: 0.5,
					EventEvery:      400 * time.Millisecond,
					PartitionHeal:   250 * time.Millisecond,
				},
			})
			if err != nil {
				t.Fatalf("traced chaotic run (events so far %+v): %v", eventsOf(res), err)
			}
			if d := chaos.Diff(clean.Tape, res.Tape); d != "" {
				t.Errorf("traced oracle violated:\n%s\nevents: %+v", d, res.Events)
			}
			if res.Supervised < 1 {
				t.Errorf("no supervisor-driven failover completed; events: %+v, status: %+v",
					res.Events, res.Status)
			}
			if res.Spans == 0 {
				t.Error("span tracing on, but no engine's collector holds a span")
			}
		})
	}
}

func eventsOf(res *chaos.Result) []chaos.Event {
	if res == nil {
		return nil
	}
	return res.Events
}

// TestCrashDuringReplaySecondRecoveryConverges crashes an engine, lets it
// begin replaying, crashes the half-recovered incarnation, and recovers
// again: the third incarnation must still converge to the reference
// output stream. This is the recursive application of the §II.A
// criterion — a recovery is itself a deterministic execution, so a crash
// inside it is just another crash.
func TestCrashDuringReplaySecondRecoveryConverges(t *testing.T) {
	reference := runReplayCrashWorkload(t, false)
	got := runReplayCrashWorkload(t, true)
	if !reflect.DeepEqual(reference, got) {
		t.Fatalf("double-crash run diverged:\n  want %v\n  got  %v", reference, got)
	}
}

func runReplayCrashWorkload(t *testing.T, doubleCrash bool) []string {
	t.Helper()
	const messages = 16

	app := tart.NewApp()
	app.Register("counter", &crashCounter{Counts: map[string]int{}},
		tart.WithConstantCost(50*time.Microsecond))
	// A deliberately slow merger stretches the replay window so the second
	// crash lands while replayed deliveries are still being re-processed.
	app.Register("slowmerge", &crashMerger{},
		tart.WithConstantCost(200*time.Microsecond))
	app.SourceInto("in", "counter", "in")
	app.Connect("counter", "out", "slowmerge", "s")
	app.SinkFrom("out", "slowmerge", "out")
	app.PlaceAll("node")

	cluster, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	outCh := make(chan string, 2*messages)
	deduped := tart.DedupOutputs(func(o tart.Output) { outCh <- o.Payload.(string) })
	if err := cluster.Sink("out", deduped); err != nil {
		t.Fatal(err)
	}
	in, _ := cluster.Source("in")

	words := []string{"oak", "pine", "elm"}
	var q tart.VirtualTime
	for i := 0; i < messages; i++ {
		vt := tart.VirtualTime((i + 1) * 1_000_000)
		if err := in.EmitAt(vt, words[i%len(words)]); err != nil {
			t.Fatal(err)
		}
		q = vt + 500_000
		in.Quiesce(q)

		if i == 3 {
			// Checkpoint early so the crash below leaves a long replay
			// suffix (inputs 5..8 replay from the log).
			if _, err := cluster.Checkpoint("node"); err != nil {
				t.Fatal(err)
			}
		}
		if i == 7 {
			if err := cluster.Fail("node"); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Recover("node"); err != nil {
				t.Fatal(err)
			}
			in.Quiesce(q)
			if doubleCrash {
				// The recovered engine is mid-replay (slow merger, 4 logged
				// inputs to chew through). Crash it again immediately and
				// recover a third incarnation from the same checkpoint+log.
				if err := cluster.Fail("node"); err != nil {
					t.Fatal(err)
				}
				if err := cluster.Recover("node"); err != nil {
					t.Fatal(err)
				}
				in.Quiesce(q)
			}
		}
	}

	var got []string
	deadline := time.After(20 * time.Second)
	for len(got) < messages {
		select {
		case s := <-outCh:
			got = append(got, s)
		case <-deadline:
			t.Fatalf("timed out at %d of %d outputs (doubleCrash=%v)", len(got), messages, doubleCrash)
		}
	}
	return got
}

// TestPartitionHealResendDedup cuts the only link between two engines
// mid-stream: envelopes sent into the partition are buffered or lost, the
// redial loop reconnects after the heal, unacked envelopes are resent,
// and the receiver's per-wire dedup drops the stutter. Outputs must match
// an unpartitioned reference exactly.
func TestPartitionHealResendDedup(t *testing.T) {
	reference := runPartitionWorkload(t, nil)

	nc := transport.NewNetem(11)
	got := runPartitionWorkload(t, nc)
	if !reflect.DeepEqual(reference, got) {
		t.Fatalf("partitioned run diverged:\n  want %v\n  got  %v", reference, got)
	}
	if st := nc.Stats(); st.Severed == 0 && st.CutDials == 0 {
		t.Errorf("partition had no observable effect: %+v", st)
	}
}

func runPartitionWorkload(t *testing.T, nc *transport.Netem) []string {
	t.Helper()
	const messages = 10

	app := tart.NewApp()
	app.Register("counter", &crashCounter{Counts: map[string]int{}},
		tart.WithConstantCost(50*time.Microsecond))
	app.Register("tally", &crashMerger{},
		tart.WithConstantCost(80*time.Microsecond))
	app.SourceInto("in", "counter", "in")
	app.Connect("counter", "out", "tally", "s")
	app.SinkFrom("out", "tally", "out")
	app.Place("counter", "a")
	app.Place("tally", "b")

	opts := []tart.ClusterOption{tart.WithManualClock(func() tart.VirtualTime { return 0 })}
	if nc != nil {
		opts = append(opts, faults.WithFaults(nc, nil).(tart.ClusterOption))
	}
	cluster, err := tart.Launch(app, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	outCh := make(chan string, 2*messages)
	deduped := tart.DedupOutputs(func(o tart.Output) { outCh <- o.Payload.(string) })
	if err := cluster.Sink("out", deduped); err != nil {
		t.Fatal(err)
	}
	in, _ := cluster.Source("in")

	collect := func(got []string, n int) []string {
		deadline := time.After(20 * time.Second)
		for len(got) < n {
			select {
			case s := <-outCh:
				got = append(got, s)
			case <-deadline:
				t.Fatalf("timed out at %d of %d outputs", len(got), n)
			}
		}
		return got
	}

	emit := func(from, to int) {
		for i := from; i < to; i++ {
			vt := tart.VirtualTime((i + 1) * 1_000_000)
			if err := in.EmitAt(vt, "word"); err != nil {
				t.Fatal(err)
			}
			in.Quiesce(vt + 500_000)
		}
	}

	var got []string
	emit(0, messages/2)
	got = collect(got, messages/2) // first half delivered before the cut

	if nc != nil {
		nc.Cut("a", "b")
	}
	emit(messages/2, messages) // buffered behind the partition
	if nc != nil {
		// Give the sender time to discover the severed connection and fail
		// some redials, then heal: reconnect resends the unacked window and
		// the receiver dedups any stutter.
		time.Sleep(250 * time.Millisecond)
		nc.Heal("a", "b")
	}
	got = collect(got, messages)
	return got
}
