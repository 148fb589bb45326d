package tart_test

import (
	"strings"
	"testing"
	"time"

	tart "repro"
)

// pushRuleRun drives one deterministic workload — a two-stage chain under a
// manual clock, EmitAt inputs, one checkpoint, one Fail/Recover — and
// returns its deduplicated tape, each engine's Metrics once the run is
// quiet, and each engine's gathered family names. Every stage has one
// input, so nothing waits on a merge: no count depends on timing.
func pushRuleRun(t *testing.T, opts ...tart.ClusterOption) (tape string, metrics map[string]tart.Metrics, families map[string][]string) {
	t.Helper()
	app := tart.NewApp()
	app.Register("front", &tagger{Name: "front"}, tart.WithConstantCost(30*time.Microsecond))
	app.Register("tail", &tagger{Name: "tail"}, tart.WithConstantCost(20*time.Microsecond))
	app.SourceInto("in", "front", "in")
	app.Connect("front", "out", "tail", "in")
	app.SinkFrom("out", "tail", "out")
	app.PlaceAll("main")
	c, err := tart.Launch(app, append([]tart.ClusterOption{tart.WithManualClock(func() tart.VirtualTime { return 0 })}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var out goldenTape
	if err := c.Sink("out", out.sink("chain", "out")); err != nil {
		t.Fatal(err)
	}
	src, err := c.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	emit := func(from, to int) {
		for i := from; i < to; i++ {
			if err := src.EmitAt(tart.VirtualTime(i*1_000_000), i); err != nil {
				t.Fatal(err)
			}
		}
		out.await(t, to-1)
	}
	emit(1, 5)
	if _, err := c.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	emit(5, 9)
	if err := c.Fail("main"); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover("main"); err != nil {
		t.Fatal(err)
	}
	emit(9, 13)
	if err := src.End(); err != nil {
		t.Fatal(err)
	}

	metrics = make(map[string]tart.Metrics)
	families = make(map[string][]string)
	for _, e := range c.Engines() {
		// The end-of-stream promises trail the last output: read once two
		// reads a few milliseconds apart agree.
		var m tart.Metrics
		for deadline := time.Now().Add(5 * time.Second); ; {
			if m, err = c.Metrics(e); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			again, _ := c.Metrics(e)
			if again == m || time.Now().After(deadline) {
				break
			}
		}
		metrics[e] = m
		fams, err := c.MetricFamilies(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			families[e] = append(families[e], f.Name)
		}
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	return strings.Join(out.lines, "\n"), metrics, families
}

// TestPushConsumerChangesNothingPulled is the attach-on-demand rule: a
// cluster with no push consumer runs its engines with no observer, and a
// push consumer (here WithFlightRecorder) changes neither the outputs nor
// any count Metrics reports, because every count is pulled from the
// protocol either way. Whatever the unobserved run gathers must be a pull
// row of README's census.
func TestPushConsumerChangesNothingPulled(t *testing.T) {
	offTape, offMetrics, offFamilies := pushRuleRun(t)
	onTape, onMetrics, _ := pushRuleRun(t, tart.WithFlightRecorder(""))
	if offTape != onTape {
		t.Errorf("deduplicated tapes differ:\n--- no push consumer\n%s\n--- flight recorder\n%s", offTape, onTape)
	}
	for e, off := range offMetrics {
		t.Logf("engine %s: %+v", e, off)
		if on := onMetrics[e]; on != off {
			t.Errorf("engine %s: Metrics differ:\n  no push consumer %+v\n  flight recorder  %+v", e, off, on)
		}
		if off.Delivered == 0 || off.Failovers != 1 || off.DuplicatesDropped == 0 {
			t.Errorf("engine %s: the workload did not exercise delivery, recovery and replay: %+v", e, off)
		}
		// Every stage has one input, so nothing can arrive out of real-time
		// order — not even the first deliveries after the restore, whose
		// arrival count resumes from the checkpointed prefix.
		if off.OutOfOrder != 0 {
			t.Errorf("engine %s: %d deliveries out of real-time order on a single-input chain, want 0", e, off.OutOfOrder)
		}
	}
	rows := censusRows(t)
	for e, names := range offFamilies {
		if len(names) == 0 {
			t.Errorf("engine %s: an unobserved engine gathers no family", e)
		}
		for _, name := range names {
			if row, ok := rows[name]; !ok || row.produced != "pull" {
				t.Errorf("engine %s: unobserved run gathers %s, which is not a pull row of README's census", e, name)
			}
		}
	}
}
