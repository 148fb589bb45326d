package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/vt"
)

// sinkRecord captures the externally observable behaviour of a run: the
// exact (wire, seq, VT, payload) sequence delivered to sinks.
type sinkRecord struct {
	Wire    msg.WireID
	Seq     uint64
	VT      vt.Time
	Payload any
}

func recordsOf(envs []msg.Envelope) []sinkRecord {
	out := make([]sinkRecord, len(envs))
	for i, e := range envs {
		out[i] = sinkRecord{Wire: e.Wire, Seq: e.Seq, VT: e.VT, Payload: e.Payload}
	}
	return out
}

// statefulCounter is a word-count-like stateful handler (Code Body 1): it
// accumulates per-key counts and emits the running total, exercising state,
// Now() and Rand() determinism.
func statefulCounter() Handler {
	counts := make(map[string]int)
	return HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		key := fmt.Sprintf("%v", payload)
		counts[key]++
		total := 0
		for _, c := range counts {
			total += c
		}
		// Mix in deterministic randomness and time so divergence would show.
		mix := int(ctx.Rand().Intn(1000)) + int(ctx.Now()%997)
		return nil, ctx.Send("out", fmt.Sprintf("%s:%d:%d", key, total, mix))
	})
}

// runFig1Once runs the Figure-1 app over a fixed logical input schedule but
// with randomized real-time emission jitter and per-message interleaving,
// returning the sink record.
func runFig1Once(t *testing.T, seed int64) []sinkRecord {
	t.Helper()
	tp := fig1(t)
	f := newFabric(t, tp)
	f.add("sender1", statefulCounter(), func(c *Config) {
		c.Est = estimator.Constant{C: 7_000}
		c.ProbeRetry = 2 * time.Millisecond
	})
	f.add("sender2", statefulCounter(), func(c *Config) {
		c.Est = estimator.Constant{C: 13_000}
		c.ProbeRetry = 2 * time.Millisecond
	})
	f.add("merger", statefulCounter(), func(c *Config) {
		c.ProbeRetry = 2 * time.Millisecond
	})
	f.start()
	defer f.stop()

	// Fixed logical schedule: interleaved messages on both sources with
	// close VTs (to exercise merging and tie-breaks), ending in quiesces.
	type ev struct {
		src string
		t   vt.Time
		pl  string
	}
	var script []ev
	for i := 0; i < 20; i++ {
		script = append(script,
			ev{src: "in1", t: vt.Time(10_000 * (i + 1)), pl: fmt.Sprintf("a%d", i%3)},
			ev{src: "in2", t: vt.Time(10_000*(i+1) + 4_000), pl: fmt.Sprintf("b%d", i%2)},
		)
	}

	// Randomized real-time jitter: two goroutines, one per source, sleeping
	// random amounts. The virtual times are fixed; only wall-clock
	// interleaving varies.
	rng := rand.New(rand.NewSource(seed))
	delays := make([]time.Duration, len(script))
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	var wg sync.WaitGroup
	for _, src := range []string{"in1", "in2"} {
		wg.Add(1)
		go func(src string) {
			defer wg.Done()
			for i, e := range script {
				if e.src != src {
					continue
				}
				time.Sleep(delays[i])
				f.emit(src, e.t, e.pl)
			}
			f.quiesce(src, vt.Max)
		}(src)
	}
	wg.Wait()

	envs := f.awaitSink(40, 20*time.Second)
	return recordsOf(envs)
}

// TestDeterminismAcrossInterleavings is the paper's core claim: the same
// logical inputs produce the identical output sequence — payloads, virtual
// times, and sequence numbers — regardless of real-time arrival order,
// thread scheduling, and emission jitter.
func TestDeterminismAcrossInterleavings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism test")
	}
	base := runFig1Once(t, 1)
	for seed := int64(2); seed <= 5; seed++ {
		got := runFig1Once(t, seed)
		if !reflect.DeepEqual(base, got) {
			for i := range base {
				if i < len(got) && !reflect.DeepEqual(base[i], got[i]) {
					t.Fatalf("run with seed %d diverged at output %d:\n  base: %+v\n  got:  %+v",
						seed, i, base[i], got[i])
				}
			}
			t.Fatalf("run with seed %d diverged in length: %d vs %d", seed, len(base), len(got))
		}
	}
}

// TestSnapshotRestoreContinuesIdentically checks the checkpoint-replay
// contract: restoring a mid-stream snapshot into a fresh scheduler and
// replaying the inputs from the snapshot's cursor regenerates the exact
// output suffix (same seq, VT, payload) — and tolerates replayed duplicates.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	// Single component: source -> comp -> sink.
	b := topo.NewBuilder()
	b.AddComponent("comp")
	b.AddSource("in", "comp", "in")
	b.AddSink("out", "comp", "out")
	b.PlaceAll("e0")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	inputs := make([]msg.Envelope, 0, 10)
	src, _ := tp.SourceByName("in")
	for i := 0; i < 10; i++ {
		inputs = append(inputs, msg.NewData(src.Wire, uint64(i+1), vt.Time(1000*(i+1)), fmt.Sprintf("w%d", i%4)))
	}

	// First run: process all 10, snapshotting after 5.
	f1 := newFabric(t, tp)
	s1 := f1.add("comp", statefulCounter())
	if err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	for _, env := range inputs[:5] {
		f1.Route(env)
	}
	full := recordsOf(f1.awaitSink(5, 5*time.Second))
	var snap State
	s1.WithQuiescent(func(st State) { snap = st })
	for _, env := range inputs[5:] {
		f1.Route(env)
	}
	full = append(full, recordsOf(f1.awaitSink(5, 5*time.Second))...)
	s1.Stop()

	if snap.Clock == 0 {
		t.Fatal("snapshot clock is zero")
	}
	if got := snap.Inputs[src.Wire].NextSeq; got != 6 {
		t.Fatalf("snapshot cursor = %d, want 6", got)
	}

	// Second run: fresh scheduler, restore, replay EVERYTHING from seq 1
	// (as a recovering sender would); duplicates 1..5 must be dropped and
	// outputs 6..10 regenerated identically.
	//
	// Note: statefulCounter's map is handler state; recovery of handler
	// state is the checkpoint package's job. Here we rebuild the handler by
	// replaying the first five inputs into a fresh instance — what matters
	// for THIS test is the scheduler state (clock, cursors, seq counters).
	f2 := newFabric(t, tp)
	h2 := statefulCounter()
	warm := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		return h2.OnMessage(ctx, port, payload)
	})
	// Warm the handler state against a throwaway scheduler.
	fWarm := newFabric(t, tp)
	sWarm := fWarm.add("comp", warm)
	if err := sWarm.Run(); err != nil {
		t.Fatal(err)
	}
	for _, env := range inputs[:5] {
		fWarm.Route(env)
	}
	fWarm.awaitSink(5, 5*time.Second)
	sWarm.Stop()

	s2 := f2.add("comp", h2)
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	for _, env := range inputs { // full replay including duplicates
		f2.Route(env)
	}
	suffix := recordsOf(f2.awaitSink(5, 5*time.Second))
	s2.Stop()

	if !reflect.DeepEqual(full[5:], suffix) {
		t.Errorf("restored run diverged:\n  want %+v\n  got  %+v", full[5:], suffix)
	}
}

func TestRestoreErrors(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	s := f.add("sender1", passthrough("out"))
	// Unknown wire in checkpoint.
	bad := State{
		Inputs: map[msg.WireID]InputState{999: {NextSeq: 1}},
	}
	if err := s.Restore(bad); err == nil {
		t.Error("unknown input wire accepted")
	}
	badOut := State{
		Outputs: map[msg.WireID]OutputState{999: {Seq: 1}},
	}
	if err := s.Restore(badOut); err == nil {
		t.Error("unknown output wire accepted")
	}
	// Restore after Run is rejected.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(State{}); err == nil {
		t.Error("restore of running scheduler accepted")
	}
	s.Stop()
}

func TestReplayNeeds(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	s := f.add("sender1", passthrough("out"))
	f.add("sender2", passthrough("out"))
	f.add("merger", passthrough("out"))
	f.start()
	defer f.stop()

	src, _ := tp.SourceByName("in1")
	f.quiesce("in2", vt.Max)
	f.Route(msg.NewData(src.Wire, 1, 1000, "a"))
	f.Route(msg.NewData(src.Wire, 2, 2000, "b"))
	f.awaitSink(2, 5*time.Second)

	needs := s.ReplayNeeds()
	if got := needs[src.Wire]; got != 3 {
		t.Errorf("replay cursor = %d, want 3 (seqs 1,2 delivered)", got)
	}
}
