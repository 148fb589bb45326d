package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

// connPairs are the three Conn implementations, each as a connected pair:
// the in-process link, a loopback TCP socket pair, and a Netem link with no
// faults over the in-process transport (its dialer end is the emulator's).
var connPairs = []struct {
	name string
	pair func(t *testing.T) (a, b Conn)
}{
	{"inproc", func(t *testing.T) (Conn, Conn) {
		a, b := newInprocPair()
		t.Cleanup(func() { a.Close() })
		return a, b
	}},
	{"tcp", func(t *testing.T) (Conn, Conn) {
		a, b, cleanup := tcpPair(t, TCP{})
		t.Cleanup(cleanup)
		return a, b
	}},
	{"netem", func(t *testing.T) (Conn, Conn) {
		a, b := netemPair(t, NewNetem(1))
		t.Cleanup(func() { a.Close(); b.Close() })
		return a, b
	}},
}

// TestConnConformance holds every Conn to the batch contract: runs sent
// with SendBatch — longer than the in-process queue bound — interleaved
// with single Sends arrive complete and in order whether received with
// RecvBatch or Recv, in both directions; and Close unblocks a waiting
// RecvBatch with ErrClosed.
func TestConnConformance(t *testing.T) {
	for _, p := range connPairs {
		t.Run(p.name, func(t *testing.T) {
			t.Run("order", func(t *testing.T) {
				a, b := p.pair(t)
				conformOrder(t, a, b)
				conformOrder(t, b, a)
			})
			t.Run("close unblocks RecvBatch", func(t *testing.T) {
				a, b := p.pair(t)
				done := make(chan error, 1)
				go func() {
					_, err := b.RecvBatch()
					done <- err
				}()
				time.Sleep(10 * time.Millisecond)
				a.Close()
				select {
				case err := <-done:
					if !errors.Is(err, ErrClosed) {
						t.Errorf("RecvBatch after close = %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Close did not unblock RecvBatch")
				}
			})
		})
	}
}

// conformOrder sends 1000 envelopes from a to b — runs of inprocDepth+44
// and inprocDepth+1 through SendBatch, each followed by one Send — while b
// alternates RecvBatch and Recv, and checks they arrive in order.
func conformOrder(t *testing.T, a, b Conn) {
	const total = 1000
	sent := make(chan error, 1)
	go func() {
		var seq uint64
		next := func() msg.Envelope {
			seq++
			return msg.NewData(1, seq, vt.Time(seq), int(seq))
		}
		for i := 0; seq < total; i++ {
			run := make([]msg.Envelope, min(inprocDepth+1+43*(i%2), total-int(seq)))
			for j := range run {
				run[j] = next()
			}
			if err := a.SendBatch(run); err != nil {
				sent <- err
				return
			}
			if seq < total {
				if err := a.Send(next()); err != nil {
					sent <- err
					return
				}
			}
		}
		sent <- nil
	}()
	var want uint64 = 1
	check := func(env msg.Envelope) {
		if env.Seq != want || env.Payload != int(want) {
			t.Fatalf("received seq %d (payload %v), want %d", env.Seq, env.Payload, want)
		}
		want++
	}
	for i := 0; want <= total; i++ {
		if i%2 == 0 {
			envs, err := b.RecvBatch()
			if err != nil {
				t.Fatalf("RecvBatch after %d envelopes: %v", want-1, err)
			}
			if len(envs) == 0 {
				t.Fatal("RecvBatch returned an empty batch")
			}
			for _, env := range envs {
				check(env)
			}
			continue
		}
		env, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv after %d envelopes: %v", want-1, err)
		}
		check(env)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
