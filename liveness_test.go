package tart_test

import (
	"testing"
	"time"

	tart "repro"
)

// route sends each integer to the shard its parity picks.
type route struct{}

func (route) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	if payload.(int)%2 == 0 {
		return nil, ctx.Send("s0", payload)
	}
	return nil, ctx.Send("s1", payload)
}

// tailApp is source -> gate -> two single-input shards -> collect -> sink,
// with the gate, the shards and the collector on three engines. The
// collector merges two wires whose senders each have a single input, so
// the last message of a burst is delivered only once a probe has climbed
// from the collector through the idle shard to the gate.
func tailApp() *tart.App {
	app := tart.NewApp()
	app.Register("gate", route{})
	app.Register("shard0", &relay{})
	app.Register("shard1", &relay{})
	app.Register("collect", &relay{})
	app.SourceInto("in", "gate", "in")
	app.Connect("gate", "s0", "shard0", "in")
	app.Connect("gate", "s1", "shard1", "in")
	app.Connect("shard0", "out", "collect", "c0")
	app.Connect("shard1", "out", "collect", "c1")
	app.SinkFrom("out", "collect", "out")
	app.Place("gate", "e0")
	app.Place("shard0", "e1")
	app.Place("shard1", "e1")
	app.Place("collect", "e2")
	return app
}

// emitTail launches tailApp, emits n integers from the real-time source and
// returns the cluster, the source and the sink's collector.
func emitTail(t *testing.T, n int, opts ...tart.ClusterOption) (*tart.Cluster, *tart.Source, *outputs) {
	t.Helper()
	cluster, err := tart.Launch(tailApp(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	out := newOutputs()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := src.Emit(i); err != nil {
			t.Fatal(err)
		}
	}
	return cluster, src, out
}

// awaitWithin waits up to d for n outputs and fails with the count reached.
func (o *outputs) awaitWithin(t *testing.T, n int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		o.mu.Lock()
		got := len(o.got)
		o.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t.Fatalf("%d of %d outputs after %v", len(o.got), n, d)
}

// TestIdleTailDrains: a burst that is never followed by End still reaches
// the sink whole. The collector's probe for the idle shard's silence climbs
// to the gate, whose answer flows back down, so the tail does not wait for
// traffic that is not coming.
func TestIdleTailDrains(t *testing.T) {
	const n = 101
	_, _, out := emitTail(t, n)
	out.awaitWithin(t, n, 2500*time.Millisecond)
}

// TestBurstThenEndDrainsOverTCP: a burst and End issued right after Launch,
// before the peers have necessarily dialled, drains over TCP. A promise
// sent while a link was down is recovered by the collector's probe, which
// climbs to the gate, whose governor has promised silence forever; a probe
// lost to a link not yet up is re-issued by the ProbeRetry backstop.
func TestBurstThenEndDrainsOverTCP(t *testing.T) {
	const n = 21
	addrs := map[string]string{"e0": freeLoopbackAddr(t), "e1": freeLoopbackAddr(t), "e2": freeLoopbackAddr(t)}
	_, src, out := emitTail(t, n, tart.WithTCP(addrs))
	src.End()
	out.awaitWithin(t, n, 10*time.Second)
}
