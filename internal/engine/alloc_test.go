package engine

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/vt"
)

// countingConn stands in for a live peer link: Send counts and discards.
type countingConn struct{ sent int }

func (c *countingConn) Send(msg.Envelope) error { c.sent++; return nil }
func (c *countingConn) Recv() (msg.Envelope, error) {
	select {} // never read in these tests
}
func (c *countingConn) Close() error { return nil }

// TestRouteAllocations pins what Route costs per envelope on the two kinds
// of component output wire: a peer-bound wire pays for its replay buffer
// only a chunk at a time, and a sink wire — which has no replay buffer —
// pays nothing.
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

	t.Run("peer-bound wire", func(t *testing.T) {
		e, err := New(Config{Name: "A", Topo: tp, Components: fig1Specs()})
		if err != nil {
			t.Fatal(err)
		}
		conn := &countingConn{}
		e.peers.mu.Lock()
		e.peers.setConnLocked("B", conn)
		e.peers.mu.Unlock()
		const sends, trimEvery = 10_000, 1_000
		var seq uint64
		avg := testing.AllocsPerRun(1, func() {
			for i := 0; i < sends; i++ {
				seq++
				e.Route(msg.NewData(toPeer, seq, vt.Time(seq), payload))
				if seq%trimEvery == 0 {
					e.Route(msg.NewAck(toPeer, seq-trimEvery/2)) // as the peer's checkpoint would
				}
			}
		})
		if perEnv := avg / sends; perEnv > 0.01 {
			t.Errorf("Route allocates %.4f objects per envelope, want <= 0.01", perEnv)
		}
		if want := 2 * sends; conn.sent != want { // AllocsPerRun warms up with one extra run
			t.Errorf("peer link saw %d envelopes, want %d", conn.sent, want)
		}
		if got := e.BufferedCount(toPeer); got != trimEvery/2 {
			t.Errorf("replay buffer holds %d envelopes after the last ack, want %d", got, trimEvery/2)
		}
	})

	t.Run("sink wire", func(t *testing.T) {
		e, err := New(Config{Name: "B", Topo: tp, Components: fig1Specs()})
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		if err := e.Sink("out", func(msg.Envelope) { seen++ }); err != nil {
			t.Fatal(err)
		}
		var seq uint64
		if avg := testing.AllocsPerRun(1000, func() {
			seq++
			e.Route(msg.NewData(toSink, seq, vt.Time(seq), payload))
		}); avg != 0 {
			t.Errorf("Route to a sink allocates %.2f objects per envelope, want 0", avg)
		}
		if seen != 1001 {
			t.Errorf("sink saw %d envelopes, want 1001", seen)
		}
		if got := e.BufferedCount(toSink); got != 0 {
			t.Errorf("sink wire buffered %d envelopes, want 0", got)
		}
	})
}
