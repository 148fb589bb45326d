package transport

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

// tcpPair dials a loopback connection and returns both ends.
func tcpPair(tb testing.TB, tr TCP) (client, server *tcpConn, cleanup func()) {
	tb.Helper()
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	acceptCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(acceptCh)
			return
		}
		acceptCh <- c
	}()
	cl, err := tr.Dial(l.Addr())
	if err != nil {
		l.Close()
		tb.Fatal(err)
	}
	srv, ok := <-acceptCh
	if !ok {
		cl.Close()
		l.Close()
		tb.Fatal("accept failed")
	}
	return cl.(*tcpConn), srv.(*tcpConn), func() {
		cl.Close()
		srv.Close()
		l.Close()
	}
}

// TestTCPCoalescesWrites checks the self-clocked writer: frames sent while
// a write is in flight (here, while the test holds the writer) join the
// next write, so the whole burst leaves in one writev, complete and in
// order, as soon as the writer is free.
func TestTCPCoalescesWrites(t *testing.T) {
	obs := &recordingObserver{}
	client, server, cleanup := tcpPair(t, TCP{Meter: obs})
	defer cleanup()

	const n = 100
	recvd := make(chan msg.Envelope, n)
	go func() {
		for {
			env, err := server.Recv()
			if err != nil {
				close(recvd)
				return
			}
			recvd <- env
		}
	}()
	client.writeMu.Lock() // a write in flight
	for i := 1; i <= n; i++ {
		if err := client.Send(msg.NewData(1, uint64(i), vt.Time(i*10), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if w := obs.writes.Load(); w != 0 {
		t.Fatalf("%d writes while the writer was busy", w)
	}
	client.writeMu.Unlock()
	for i := 1; i <= n; i++ {
		select {
		case env := <-recvd:
			if env.Seq != uint64(i) {
				t.Fatalf("frame %d arrived with seq %d", i, env.Seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	// The writer reports a write once it returns, which may be after the
	// reader has the frames.
	for deadline := time.Now().Add(10 * time.Second); obs.writes.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if w, f := obs.writes.Load(), obs.frames.Load(); w != 1 || f != n {
		t.Errorf("%d frames in %d writes, want %d frames in one write", f, w, n)
	}
}

// TestTCPIdleSendWritesInline checks that a Send on an idle connection
// writes before it returns, with no hand-off: sparse traffic is one write
// per envelope and pays no latency.
func TestTCPIdleSendWritesInline(t *testing.T) {
	obs := &recordingObserver{}
	client, server, cleanup := tcpPair(t, TCP{Meter: obs})
	defer cleanup()

	const n = 20
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				return
			}
		}
	}()
	for i := 1; i <= n; i++ {
		time.Sleep(time.Millisecond) // longer than idleGap
		if err := client.Send(msg.NewSilence(1, vt.Time(i*10))); err != nil {
			t.Fatal(err)
		}
		if w := obs.writes.Load(); w != int64(i) {
			t.Fatalf("after idle send %d: %d writes, want %d", i, w, i)
		}
	}
}

// BenchmarkTransportCoalescing pushes a silence-heavy envelope mix (the
// watermark chatter that dominates idle wires) through a loopback TCP
// connection as fast as one sender can, and reports socket writes per
// envelope: the self-clocked writer batches whatever arrives during a
// write.
func BenchmarkTransportCoalescing(b *testing.B) {
	obs := &recordingObserver{}
	client, server, cleanup := tcpPair(b, TCP{Meter: obs})
	defer cleanup()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := server.Recv(); err != nil {
				return
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	seq := uint64(0)
	for i := 0; i < b.N; i++ {
		var env msg.Envelope
		if i%5 == 0 { // 20% data, 80% silence promises
			seq++
			env = msg.NewData(1, seq, vt.Time(i*100), nil)
		} else {
			env = msg.NewSilence(msg.WireID(1+i%4), vt.Time(i*100))
		}
		if err := client.Send(env); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	if f := obs.frames.Load(); f > 0 {
		b.ReportMetric(float64(obs.writes.Load())/float64(f), "writes/envelope")
	}
}
