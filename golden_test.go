package tart_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	tart "repro"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tapes_v1.golden")

// goldenPath holds one deduplicated output tape per fixed app: a line per
// output, "<app> <sink> <seq> <vt> <payload>", in sink-arrival order.
var goldenPath = filepath.Join("testdata", "tapes_v1.golden")

// tagger emits every input it handles tagged with its own name, so the
// order a merger sees its inputs in shows in its output payloads.
type tagger struct {
	Name string
	N    int
}

func (g *tagger) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	g.N++
	return nil, ctx.Send("out", fmt.Sprintf("%s#%d(%v)", g.Name, g.N, payload))
}

// joiner is a fan-in merger: each output names the port it came in on and
// how many inputs preceded it, so a changed tie-break moves the tape.
type joiner struct{ N int }

func (j *joiner) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	j.N++
	return nil, ctx.Send("out", fmt.Sprintf("%d:%s:%v", j.N, port, payload))
}

// goldenFanIn is three senders feeding one merger. Every sender has the
// same constant cost and every source emits at the same virtual times, so
// the merger sees a three-way VT tie at each step. engines places the
// senders on the first engine and the merger on the last.
func goldenFanIn(engines ...string) *tart.App {
	app := tart.NewApp()
	app.Register("merger", &joiner{}, tart.WithConstantCost(20*time.Microsecond))
	app.SinkFrom("out", "merger", "out")
	app.Place("merger", engines[len(engines)-1])
	for _, s := range []string{"s1", "s2", "s3"} {
		app.Register(s, &tagger{Name: s}, tart.WithConstantCost(50*time.Microsecond))
		app.SourceInto("in-"+s, s, "in")
		app.Connect(s, "out", "merger", s)
		app.Place(s, engines[0])
	}
	return app
}

// goldenTape collects one app's deduplicated sink tape.
type goldenTape struct {
	mu    sync.Mutex
	lines []string
}

func (g *goldenTape) sink(app, sink string) func(tart.Output) {
	return tart.DedupOutputs(func(o tart.Output) {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.lines = append(g.lines, fmt.Sprintf("%s %s %d %d %v", app, sink, o.Seq, int64(o.VT), o.Payload))
	})
}

func (g *goldenTape) await(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		g.mu.Lock()
		got := len(g.lines)
		g.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d outputs", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// emitFanIn emits rounds [from, to) on every fan-in source at identical
// virtual times, then quiesces them all up to the next round.
func emitFanIn(t *testing.T, c *tart.Cluster, from, to int) {
	t.Helper()
	for _, s := range []string{"s1", "s2", "s3"} {
		src, err := c.Source("in-" + s)
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i < to; i++ {
			if err := src.EmitAt(tart.VirtualTime(i*1_000_000), i); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Quiesce(tart.VirtualTime(to*1_000_000 - 1)); err != nil {
			t.Fatal(err)
		}
	}
}

func launchGolden(t *testing.T, app *tart.App) *tart.Cluster {
	t.Helper()
	c, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// goldenApps runs each fixed app to completion and returns its tape.
var goldenApps = []struct {
	name string
	run  func(t *testing.T, tape *goldenTape)
}{
	{"fanin", func(t *testing.T, tape *goldenTape) {
		c := launchGolden(t, goldenFanIn("main"))
		if err := c.Sink("out", tape.sink("fanin", "out")); err != nil {
			t.Fatal(err)
		}
		emitFanIn(t, c, 1, 9)
		tape.await(t, 24)
	}},
	{"call", func(t *testing.T, tape *goldenTape) {
		app := tart.NewApp()
		app.Register("front", handlerFunc(func(ctx *tart.Context, port string, payload any) (any, error) {
			reply, err := ctx.Call("lookup", payload)
			if err != nil {
				return nil, err
			}
			return nil, ctx.Send("out", fmt.Sprintf("%v->%v", payload, reply))
		}), tart.WithConstantCost(10*time.Microsecond))
		var served int
		app.Register("backend", handlerFunc(func(ctx *tart.Context, port string, payload any) (any, error) {
			served++
			return fmt.Sprintf("v%d*%d", payload, served), nil
		}), tart.WithConstantCost(30*time.Microsecond))
		app.SourceInto("in", "front", "req")
		app.ConnectCall("front", "lookup", "backend", "q")
		app.SinkFrom("out", "front", "out")
		app.PlaceAll("main")
		c := launchGolden(t, app)
		if err := c.Sink("out", tape.sink("call", "out")); err != nil {
			t.Fatal(err)
		}
		src, err := c.Source("in")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 8; i++ {
			if err := src.EmitAt(tart.VirtualTime(i*1_000_000), i); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Quiesce(9_000_000); err != nil {
			t.Fatal(err)
		}
		tape.await(t, 8)
	}},
	{"fanin-split", func(t *testing.T, tape *goldenTape) {
		c := launchGolden(t, goldenFanIn("A", "B"))
		if err := c.Sink("out", tape.sink("fanin-split", "out")); err != nil {
			t.Fatal(err)
		}
		emitFanIn(t, c, 1, 9)
		tape.await(t, 24)
	}},
	{"recover", func(t *testing.T, tape *goldenTape) {
		c := launchGolden(t, goldenFanIn("main"))
		if err := c.Sink("out", tape.sink("recover", "out")); err != nil {
			t.Fatal(err)
		}
		emitFanIn(t, c, 1, 4)
		tape.await(t, 9)
		if _, err := c.Checkpoint("main"); err != nil {
			t.Fatal(err)
		}
		emitFanIn(t, c, 4, 7)
		tape.await(t, 18)
		if err := c.Fail("main"); err != nil {
			t.Fatal(err)
		}
		// The replay's stutter lands on the same deduplicating sink.
		if err := c.Recover("main"); err != nil {
			t.Fatal(err)
		}
		emitFanIn(t, c, 7, 9)
		tape.await(t, 24)
	}},
	{"bias", func(t *testing.T, tape *goldenTape) {
		// A remote slow sender at HyperAggressive beside a fast one: its
		// promises run 2 ms past what it knows and floor its own outputs,
		// so each slow output reaches the merger about 2 ms after the fast
		// one emitted with it, and the second of a close pair (5 ms after
		// 4 ms, 13 ms after 12 ms) a millisecond later still.
		app := tart.NewApp()
		app.Register("merger", &joiner{}, tart.WithConstantCost(20*time.Microsecond))
		app.SinkFrom("out", "merger", "out")
		app.Place("merger", "B")
		app.Register("fast", &tagger{Name: "fast"}, tart.WithConstantCost(50*time.Microsecond))
		app.Register("slow", &tagger{Name: "slow"}, tart.WithConstantCost(50*time.Microsecond),
			tart.WithSilence(tart.HyperAggressive))
		for _, s := range []string{"fast", "slow"} {
			app.SourceInto("in-"+s, s, "in")
			app.Connect(s, "out", "merger", s)
			app.Place(s, "A")
		}
		c := launchGolden(t, app)
		if err := c.Sink("out", tape.sink("bias", "out")); err != nil {
			t.Fatal(err)
		}
		for s, rounds := range map[string][]int{"fast": {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, "slow": {4, 5, 12, 13}} {
			src, err := c.Source("in-" + s)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range rounds {
				if err := src.EmitAt(tart.VirtualTime(i*1_000_000), i); err != nil {
					t.Fatal(err)
				}
			}
			if err := src.Quiesce(17_000_000 - 1); err != nil {
				t.Fatal(err)
			}
		}
		tape.await(t, 20)
	}},
}

// TestGoldenTapes pins the deduplicated output tape of five fixed apps —
// fan-in with VT ties, a two-way call, the same fan-in split across two
// engines, a mid-stream checkpoint, crash and recovery, and a remote slow
// sender running the bias algorithm — to testdata/tapes_v1.golden. A change to the merge order, the cost model's
// VT arithmetic or replay that moves any output's sequence number, virtual
// time or payload fails it, naming the first differing record. Run with
// -update to rewrite the file after an intended change.
//
// Every app runs under WithManualClock with constant-cost estimators, so
// the tape is a function of the code alone. Calibration is left out: its
// coefficients come from measured wall time.
func TestGoldenTapes(t *testing.T) {
	var all []string
	for _, app := range goldenApps {
		tape := &goldenTape{}
		t.Run(app.name, func(t *testing.T) { app.run(t, tape) })
		tape.mu.Lock()
		all = append(all, tape.lines...)
		tape.mu.Unlock()
	}
	if t.Failed() {
		return
	}
	got := []byte(strings.Join(all, "\n") + "\n")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("tape differs from %s at record %d:\n  want %q\n  got  %q", goldenPath, i+1, w, g)
		}
	}
}
