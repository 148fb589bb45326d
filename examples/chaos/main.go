// The chaos example runs a three-engine pipeline under an automatic
// failover supervisor and a seeded chaos schedule: an engine is
// fail-stopped without telling anyone, the supervisor's failure detector
// notices the heartbeat silence and drives Fail→Recover on its own, and
// the consumer — wrapped in DedupOutputs — observes an exactly-once stream
// identical to a fault-free run. Nothing in the driver below ever calls
// Fail or Recover: detection and recovery are entirely the supervisor's.
// Link partitions and disk faults are the chaos oracle's
// (go test -run TestChaosOracleMultiSeed .), not the public API's.
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	tart "repro"
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

// Tally numbers everything it merges.
type Tally struct {
	N int
}

// OnMessage implements tart.Component.
func (t *Tally) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	t.N++
	return nil, ctx.Send("out", fmt.Sprintf("#%02d %v", t.N, payload))
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	app := tart.NewApp()
	app.Register("count", &Count{Seen: map[string]int{}},
		tart.WithConstantCost(50*time.Microsecond))
	app.Register("tally", &Tally{},
		tart.WithConstantCost(80*time.Microsecond))
	app.SourceInto("in", "count", "in")
	app.Connect("count", "out", "tally", "s")
	app.SinkFrom("out", "tally", "out")
	app.Place("count", "alpha")
	app.Place("tally", "beta")

	// The supervisor polls peer health; 300ms of heartbeat silence from
	// every peer condemns an engine, and recovery runs without an operator.
	cluster, err := tart.Launch(app,
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithCheckpointEvery(20*time.Millisecond),
		tart.WithSupervisor(tart.SupervisorConfig{
			SuspectAfter: 300 * time.Millisecond,
			PollEvery:    50 * time.Millisecond,
		}),
	)
	if err != nil {
		return err
	}
	defer cluster.Stop()

	outputs := make(chan string, 64)
	err = cluster.Sink("out", tart.DedupOutputs(func(o tart.Output) {
		outputs <- fmt.Sprintf("%v", o.Payload)
	}))
	if err != nil {
		return err
	}
	in, err := cluster.Source("in")
	if err != nil {
		return err
	}

	words := []string{"ash", "birch", "cedar"}
	emit := func(i int) error {
		vt := tart.VirtualTime((i + 1) * 1_000_000)
		for {
			err := in.EmitAt(vt, words[i%len(words)])
			switch {
			case err == nil:
				in.Quiesce(vt + 500_000)
				return nil
			case errors.Is(err, tart.ErrEngineDown):
				time.Sleep(10 * time.Millisecond) // crash window: wait out the failover
			case strings.Contains(err.Error(), "not after last emit"):
				return nil // already logged pre-crash; replay re-delivers it
			default:
				return err
			}
		}
	}

	fmt.Println("== phase 1: clean stream ==")
	for i := 0; i < 4; i++ {
		if err := emit(i); err != nil {
			return err
		}
	}
	if err := drain(outputs, 4); err != nil {
		return err
	}

	fmt.Println("\n== phase 2: silent crash of engine alpha (nobody calls Recover) ==")
	if err := cluster.Crash("alpha"); err != nil {
		return err
	}
	for i := 4; i < 8; i++ {
		if err := emit(i); err != nil { // blocks until the supervisor restores alpha
			return err
		}
	}
	if err := drain(outputs, 4); err != nil {
		return err
	}
	for _, f := range cluster.SupervisorStatus().Failovers {
		fmt.Printf("   supervisor: %s suspected (%s), recovered as generation %d in %s\n",
			f.Engine, f.Cause, f.Generation, f.TimeToRecover.Round(10*time.Microsecond))
	}

	fmt.Println("\nexactly-once stream survived a silent crash.")
	return nil
}

func drain(outputs <-chan string, n int) error {
	for i := 0; i < n; i++ {
		select {
		case s := <-outputs:
			fmt.Printf("   %s\n", s)
		case <-time.After(20 * time.Second):
			return fmt.Errorf("timed out after %d of %d outputs", i, n)
		}
	}
	return nil
}
