package tart

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topo"
)

// relay forwards every message unchanged.
type relay struct{ Seen uint64 }

func (r *relay) OnMessage(ctx *Context, _ string, payload any) (any, error) {
	r.Seen++
	return nil, ctx.Send("out", payload)
}

// TestShedLimitIgnoresSinkOutput: the shed limit bounds replay state a
// down peer keeps the engine from trimming. On a healthy cluster that
// checkpoints regularly it must never trigger, however much output the
// sink has seen — sink wires have no replay buffer, because nothing could
// ever acknowledge one.
func TestShedLimitIgnoresSinkOutput(t *testing.T) {
	const (
		limit = 1000
		burst = 250
		total = 5000
	)
	// Source and sink share engine e0 (its shed check reads the buffers the
	// sink wire used to fill); the middle hop crosses to e1 and back.
	app := NewApp()
	for _, name := range []string{"first", "second", "third"} {
		app.Register(name, &relay{})
	}
	app.SourceInto("in", "first", "in")
	app.Connect("first", "out", "second", "in")
	app.Connect("second", "out", "third", "in")
	app.SinkFrom("out", "third", "out")
	app.Place("first", "e0")
	app.Place("second", "e1")
	app.Place("third", "e0")

	c, err := Launch(app, WithShedLimit(limit))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var delivered atomic.Int64
	if err := c.Sink("out", func(Output) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	src, err := c.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	buffered := func() int { // across the wires a checkpoint ack trims
		n := 0
		for _, w := range c.tp.Wires() {
			if w.From != topo.External && w.To != topo.External {
				n += c.engines[c.tp.EngineOf(w.From)].eng.BufferedCount(w.ID)
			}
		}
		return n
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (delivered %d, buffered %d)", what, delivered.Load(), buffered())
			}
			time.Sleep(time.Millisecond)
		}
	}

	for sent := 0; sent < total; {
		for i := 0; i < burst; i++ {
			if _, err := src.Emit("x"); err != nil {
				t.Fatalf("emit %d on a healthy cluster: %v", sent, err)
			}
			sent++
		}
		waitFor("burst to reach the sink", func() bool { return delivered.Load() == int64(sent) })
		// Sink side first, so each ack finds its sender's buffer complete.
		for _, eng := range []string{"e0", "e1"} {
			if _, err := c.Checkpoint(eng); err != nil {
				t.Fatal(err)
			}
		}
		waitFor("acks to trim the replay buffers", func() bool { return buffered() == 0 })
	}

	sink, _ := c.tp.SinkByName("out")
	if n := c.engines["e0"].eng.BufferedCount(sink.Wire); n != 0 {
		t.Errorf("sink wire holds %d buffered envelopes, want 0", n)
	}
}
