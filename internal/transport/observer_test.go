package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

// recordingObserver keeps what a TCP connection reports to it.
type recordingObserver struct {
	writes, frames, sent, recv, fallbacks atomic.Int64
}

func (r *recordingObserver) SocketWrite(frames, bytes int) {
	r.writes.Add(1)
	r.frames.Add(int64(frames))
	r.sent.Add(int64(bytes))
}

func (r *recordingObserver) SocketRead(bytes int) { r.recv.Add(int64(bytes)) }

func (r *recordingObserver) CodecFallback() { r.fallbacks.Add(1) }

type unregisteredObserverPayload struct{ S string }

func TestObserverSeesBytesBatchesAndFallbacks(t *testing.T) {
	if err := msg.RegisterPayload(unregisteredObserverPayload{}); err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	c, srv, cleanup := tcpPair(t, TCP{Meter: obs})
	defer cleanup()

	const sends = 10
	for i := 0; i < sends; i++ {
		var payload any = "registered"
		if i%2 == 0 {
			payload = unregisteredObserverPayload{S: "fallback"}
		}
		time.Sleep(time.Millisecond) // longer than idleGap: each Send writes inline
		if err := c.Send(msg.NewData(1, uint64(i+1), 10, payload)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	if got := obs.sent.Load(); got <= 0 {
		t.Errorf("bytes sent = %d, want > 0", got)
	}
	if got, sent := obs.recv.Load(), obs.sent.Load(); got != sent {
		t.Errorf("bytes recv = %d, want the %d sent", got, sent)
	}
	// Idle sends: one writev per envelope, reported before Send returns.
	if w, f := obs.writes.Load(), obs.frames.Load(); w != sends || f != sends {
		t.Errorf("writes/frames = %d/%d, want %d/%d", w, f, sends, sends)
	}
	// 5 fallback sends reported on the send side and again on the receive
	// side (both ends share this observer).
	if got := obs.fallbacks.Load(); got != sends {
		t.Errorf("fallbacks = %d, want %d", got, sends)
	}
}

// TestNilObserverIsNoOp: a transport with no observer carries every frame,
// fallback payloads included, and reports nothing.
func TestNilObserverIsNoOp(t *testing.T) {
	if err := msg.RegisterPayload(unregisteredObserverPayload{}); err != nil {
		t.Fatal(err)
	}
	c, srv, cleanup := tcpPair(t, TCP{})
	defer cleanup()
	for i := 1; i <= 3; i++ {
		if err := c.Send(msg.NewData(1, uint64(i), vt.Time(i), unregisteredObserverPayload{S: "x"})); err != nil {
			t.Fatal(err)
		}
		if env, err := srv.Recv(); err != nil || env.Seq != uint64(i) {
			t.Fatalf("recv %d: seq %d, %v", i, env.Seq, err)
		}
	}
}
