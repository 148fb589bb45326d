package tart_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	tart "repro"
)

// TestSourceEmitsAcrossFailover: two producers emit from their own
// goroutines while the engine hosting their component fails and recovers.
// Source handles read the slot's live engine without the cluster lock, so
// this runs under -race in CI. An Emit after Fail returns ErrEngineDown and
// logs nothing: each producer retries what was refused once the engine is
// back, and the deduplicated tape equals a run with no failover.
func TestSourceEmitsAcrossFailover(t *testing.T) {
	want := emitAcrossFailover(t, false)
	if got := emitAcrossFailover(t, true); got != want {
		t.Errorf("tape changed across the failover:\n--- no failover\n%s\n--- failover\n%s", want, got)
	}
}

func emitAcrossFailover(t *testing.T, fail bool) string {
	const n = 300 // inputs per producer
	c := launchGolden(t, goldenFanIn("main"))
	var tape goldenTape
	if err := c.Sink("out", tape.sink("fanin", "out")); err != nil {
		t.Fatal(err)
	}
	srcs := make([]*tart.Source, 3)
	for i, s := range []string{"s1", "s2", "s3"} {
		var err error
		if srcs[i], err = c.Source("in-" + s); err != nil {
			t.Fatal(err)
		}
	}
	if err := srcs[2].End(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}

	half, down := make(chan struct{}, 2), make(chan struct{}, 2)
	failed, recovered := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, src := range srcs[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sawDown := false
			// retry repeats an operation the failed engine refused, once it
			// is back; the refusal logged nothing.
			retry := func(op func() error) error {
				for {
					err := op()
					if !errors.Is(err, tart.ErrEngineDown) {
						return err
					}
					if !sawDown {
						sawDown = true
						down <- struct{}{}
					}
					<-recovered
				}
			}
			for i := 1; i <= n; i++ {
				if i == n/2 {
					half <- struct{}{}
				}
				if err := retry(func() error { return src.EmitAt(tart.VirtualTime(i*1_000_000), i) }); err != nil {
					errs <- err
					return
				}
			}
			<-failed // so End meets the failed engine if no emit did
			errs <- retry(src.End)
		}()
	}
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	wait(half, "the producers' first half")
	wait(half, "the producers' first half")
	if fail {
		if err := c.Fail("main"); err != nil {
			t.Fatal(err)
		}
		if _, err := srcs[0].Emit("refused"); !errors.Is(err, tart.ErrEngineDown) {
			t.Errorf("Emit after Fail = %v, want ErrEngineDown", err)
		}
	}
	close(failed)
	if fail {
		wait(down, "a producer to meet the failed engine")
		wait(down, "a producer to meet the failed engine")
		if err := c.Recover("main"); err != nil {
			t.Fatal(err)
		}
		// Silence promises are not logged: the replacement learns s3's end
		// of stream again, as a producer re-asserts it after a failover.
		if err := srcs[2].End(); err != nil {
			t.Fatal(err)
		}
	}
	close(recovered)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	tape.await(t, 2*n)
	tape.mu.Lock()
	defer tape.mu.Unlock()
	return strings.Join(tape.lines, "\n")
}
