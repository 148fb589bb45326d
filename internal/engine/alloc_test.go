package engine

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/vt"
)

// countingConn stands in for a live peer link: sends count and discard.
type countingConn struct{ sent, batches int }

func (c *countingConn) Send(msg.Envelope) error { c.sent++; c.batches++; return nil }
func (c *countingConn) SendBatch(envs []msg.Envelope) error {
	c.sent += len(envs)
	c.batches++
	return nil
}
func (c *countingConn) Recv() (msg.Envelope, error) {
	select {} // never read in these tests
}
func (c *countingConn) RecvBatch() ([]msg.Envelope, error) {
	select {} // never read in these tests
}
func (c *countingConn) Close() error { return nil }

// TestRouteAllocations pins what Route costs per envelope on the two kinds
// of component output wire: a peer-bound wire pays for its replay buffer
// only a chunk at a time, and a sink wire — which has no replay buffer —
// pays nothing. Both hold with the observer off and with everything a
// Cluster attaches, whose peer link reports every frame, for one-envelope
// batches and for the batches a worker's step stages, which reach the peer
// link in one SendBatch.
func TestRouteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tp := fig1Topo(t, true) // senders on A, merger (and the sink) on B
	var toPeer, toSink msg.WireID = -1, -1
	for _, w := range tp.Wires() {
		switch {
		case w.Kind == topo.WireSink:
			toSink = w.ID
		case w.Kind == topo.WireSend && toPeer < 0:
			toPeer = w.ID
		}
	}
	payload := any("x")
	for _, o := range []struct {
		name string
		obs  func(engine string) Observer
	}{{"nil", unobserved}, {"observed", observed}} {
		t.Run(o.name, func(t *testing.T) {
			routeAllocs(t, tp, toPeer, toSink, payload, o.obs, "", 1)
			routeAllocs(t, tp, toPeer, toSink, payload, o.obs, " batched", 16)
		})
	}
}

func routeAllocs(t *testing.T, tp *topo.Topology, toPeer, toSink msg.WireID, payload any, obs func(engine string) Observer, lane string, batch int) {
	envs := make([]msg.Envelope, batch) // the worker's stage, reused
	ack := make([]msg.Envelope, 1)
	t.Run("peer-bound wire"+lane, func(t *testing.T) {
		e, err := New(Config{Name: "A", Topo: tp, Components: fig1Specs(), Metrics: obs("A")})
		if err != nil {
			t.Fatal(err)
		}
		conn := &countingConn{}
		e.peers.register("B", conn)
		const sends, trimEvery = 10_000, 1_000
		var seq uint64
		avg := testing.AllocsPerRun(1, func() {
			for i := 0; i < sends/batch; i++ {
				for j := range envs {
					seq++
					envs[j] = msg.NewData(toPeer, seq, vt.Time(seq), payload)
				}
				e.Route(envs)
				if seq%trimEvery == 0 {
					ack[0] = msg.NewAck(toPeer, seq-trimEvery/2) // as the peer's checkpoint would
					e.Route(ack)
				}
			}
		})
		if perEnv := avg / sends; perEnv > 0.01 {
			t.Errorf("Route allocates %.4f objects per envelope, want <= 0.01", perEnv)
		}
		if want := 2 * sends; conn.sent != want { // AllocsPerRun warms up with one extra run
			t.Errorf("peer link saw %d envelopes, want %d", conn.sent, want)
		}
		if want := 2 * sends / batch; conn.batches != want {
			t.Errorf("peer link saw %d batches, want %d (one per Route)", conn.batches, want)
		}
		if got := e.BufferedCount(toPeer); got != trimEvery/2 {
			t.Errorf("replay buffer holds %d envelopes after the last ack, want %d", got, trimEvery/2)
		}
	})

	t.Run("sink wire"+lane, func(t *testing.T) {
		e, err := New(Config{Name: "B", Topo: tp, Components: fig1Specs(), Metrics: obs("B")})
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		if err := e.Sink("out", func(msg.Envelope) { seen++ }); err != nil {
			t.Fatal(err)
		}
		var seq uint64
		if avg := testing.AllocsPerRun(1000, func() {
			for j := range envs {
				seq++
				envs[j] = msg.NewData(toSink, seq, vt.Time(seq), payload)
			}
			e.Route(envs)
		}); avg != 0 {
			t.Errorf("Route to a sink allocates %.2f objects per batch, want 0", avg)
		}
		if want := 1001 * batch; seen != want {
			t.Errorf("sink saw %d envelopes, want %d", seen, want)
		}
		if got := e.BufferedCount(toSink); got != 0 {
			t.Errorf("sink wire buffered %d envelopes, want 0", got)
		}
	})
}
