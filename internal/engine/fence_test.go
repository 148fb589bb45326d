package engine

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestGenerationFencing drives the handshake protocol directly against a
// live engine: hellos carrying a generation below the engine's max-seen
// for that peer (seeded via PeerGens, then raised by admitted handshakes)
// are fenced — the connection is closed without a hello reply — so a
// zombie incarnation that lingered past its failover cannot re-join.
func TestGenerationFencing(t *testing.T) {
	tp := fig1Topo(t, true) // senders on A, merger on B
	net := transport.NewInproc()
	specs := fig1Specs()
	engA, err := New(Config{
		Name: "A",
		Topo: tp,
		Components: map[string]ComponentSpec{
			"sender1": specs["sender1"],
			"sender2": specs["sender2"],
		},
		Transport:   net,
		Addrs:       map[string]string{"A": "addr-A", "B": "addr-B"},
		RedialEvery: time.Hour, // keep A's own dialer out of the way
		Generation:  5,
		PeerGens:    map[string]uint64{"B": 3},
		Metrics:     registryMetrics("A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	defer engA.Stop()

	// handshake dials A and performs B's side of the hello exchange.
	handshake := func(gen uint64) (reply msg.Envelope, ok bool) {
		t.Helper()
		conn, err := net.Dial("addr-A")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Send(msg.Envelope{Kind: msg.KindHello, Payload: "B", Seq: gen}); err != nil {
			t.Fatal(err)
		}
		reply, err = conn.Recv()
		return reply, err == nil
	}

	if _, ok := handshake(2); ok {
		t.Error("generation 2 hello admitted despite PeerGens seeding max-seen 3")
	}
	reply, ok := handshake(4)
	if !ok {
		t.Fatal("generation 4 hello fenced, want admitted")
	}
	if reply.Kind != msg.KindHello || reply.Payload != "A" || reply.Seq != 5 {
		t.Fatalf("hello reply = %+v, want A's hello with generation 5", reply)
	}
	// The admitted handshake raised max-seen to 4: the previously valid
	// generation 3 is now a zombie too.
	if _, ok := handshake(3); ok {
		t.Error("generation 3 hello admitted after a generation-4 incarnation was seen")
	}

	fenced := int64(0)
	for _, fam := range metricsOf(engA).Registry().Gather() {
		if fam.Name == trace.MetricFencedHellos {
			for _, s := range fam.Series {
				if s.Get("peer") == "B" {
					fenced = int64(s.Value)
				}
			}
		}
	}
	if fenced != 2 {
		t.Errorf("%s{peer=B} = %d, want 2", trace.MetricFencedHellos, fenced)
	}
}
