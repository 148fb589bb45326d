package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

// testTransport exercises the Conn/Listener contract shared by all
// implementations.
func testTransport(t *testing.T, tr Transport, addr string) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type acceptResult struct {
		conn Conn
		err  error
	}
	acceptCh := make(chan acceptResult, 1)
	go func() {
		c, err := l.Accept()
		acceptCh <- acceptResult{conn: c, err: err}
	}()

	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ar := <-acceptCh
	if ar.err != nil {
		t.Fatal(ar.err)
	}
	server := ar.conn
	defer server.Close()

	// Client -> server, in order.
	for i := 1; i <= 10; i++ {
		if err := client.Send(msg.NewData(1, uint64(i), vt.Time(i*100), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10; i++ {
		env, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if env.Seq != uint64(i) || env.VT != vt.Time(i*100) {
			t.Errorf("frame %d: %+v", i, env)
		}
	}

	// Server -> client (full duplex).
	if err := server.Send(msg.NewSilence(2, 5000)); err != nil {
		t.Fatal(err)
	}
	env, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != msg.KindSilence || env.Promise != 5000 {
		t.Errorf("reverse frame: %+v", env)
	}

	// Closing the peer unblocks Recv with ErrClosed.
	done := make(chan error, 1)
	go func() {
		_, err := client.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	server.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("Recv after peer close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on peer close")
	}
}

func TestInprocTransport(t *testing.T) {
	testTransport(t, NewInproc(), "engineA")
}

func TestTCPTransport(t *testing.T) {
	testTransport(t, TCP{}, "127.0.0.1:0")
}

func TestInprocDialUnknownAddr(t *testing.T) {
	tr := NewInproc()
	if _, err := tr.Dial("ghost"); err == nil {
		t.Error("dial to unbound address succeeded")
	}
}

func TestInprocDuplicateBind(t *testing.T) {
	tr := NewInproc()
	l, err := tr.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("a"); err == nil {
		t.Error("duplicate bind succeeded")
	}
	l.Close()
	// Address is released after Close.
	l2, err := tr.Listen("a")
	if err != nil {
		t.Errorf("rebind after close failed: %v", err)
	}
	l2.Close()
}

func TestInprocListenerCloseUnblocksAccept(t *testing.T) {
	tr := NewInproc()
	l, err := tr.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("Accept = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock")
	}
}

func TestInprocListenerCloseResetsUnaccepted(t *testing.T) {
	tr := NewInproc()
	l, err := tr.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tr.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := recvWithin(c, time.Second); err != ErrClosed {
		t.Errorf("dialer Recv after listener close = %v, want ErrClosed", err)
	}
	if _, err := tr.Dial("x"); err == nil {
		t.Error("dial to a closed listener succeeded")
	}
}

func TestInprocConcurrentSenders(t *testing.T) {
	const senders, each = 8, 200
	tr := NewInproc()
	l, _ := tr.Listen("conc")
	defer l.Close()
	got := make(chan []msg.Envelope, 1)
	go func() {
		var envs []msg.Envelope
		defer func() { got <- envs }()
		srv, err := l.Accept()
		if err != nil {
			return
		}
		defer srv.Close()
		for len(envs) < senders*each {
			env, err := srv.Recv()
			if err != nil {
				return
			}
			envs = append(envs, env)
		}
	}()
	c, err := tr.Dial("conc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := c.Send(msg.NewData(msg.WireID(id), uint64(j+1), vt.Time(j), nil)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	envs := <-got
	if len(envs) != senders*each {
		t.Fatalf("received %d envelopes, want %d", len(envs), senders*each)
	}
	last := make([]uint64, senders)
	for _, env := range envs {
		if env.Seq != last[env.Wire]+1 {
			t.Fatalf("sender %d: seq %d after %d", env.Wire, env.Seq, last[env.Wire])
		}
		last[env.Wire] = env.Seq
	}
}

// recvWithin reports the error a Recv on c returns, or fails the wait
// with a non-nil error of its own if Recv is still blocked after d.
func recvWithin(c Conn, d time.Duration) error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return errStillBlocked
	}
}

var errStillBlocked = errors.New("still blocked")

// closeEnds runs fn on a fresh pair (a sends, b receives) once with a as
// the end that closes and once with b: closing either end closes the link.
func closeEnds(t *testing.T, fn func(t *testing.T, a, b, closer *inprocConn)) {
	for _, end := range []string{"close-sender", "close-receiver"} {
		t.Run(end, func(t *testing.T) {
			a, b := newInprocPair()
			closer := a
			if end == "close-receiver" {
				closer = b
			}
			fn(t, a, b, closer)
		})
	}
}

func TestInprocSendOnClosedEndFails(t *testing.T) {
	closeEnds(t, func(t *testing.T, a, b, closer *inprocConn) {
		closer.Close()
		for _, c := range []*inprocConn{a, b} {
			if err := c.Send(msg.NewData(1, 1, 0, nil)); err != ErrClosed {
				t.Errorf("Send after close = %v, want ErrClosed", err)
			}
		}
	})
}

func TestInprocRecvDrainsBeforeClosed(t *testing.T) {
	a, b := newInprocPair()
	send := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := a.Send(msg.NewData(1, uint64(i), 0, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first Recv takes a batch of 100; the next 100 stay queued on
	// the link when the sender closes.
	send(1, 100)
	if env, err := b.Recv(); err != nil || env.Seq != 1 {
		t.Fatalf("first Recv = %+v, %v", env, err)
	}
	send(101, 200)
	a.Close()
	for i := 2; i <= 200; i++ {
		env, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv %d after peer close: %v", i, err)
		}
		if env.Seq != uint64(i) {
			t.Fatalf("Recv %d: seq %d", i, env.Seq)
		}
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Errorf("Recv after draining = %v, want ErrClosed", err)
	}
}

// blockedSend fills a's direction to its bound and starts one more Send,
// which must block; the returned channel carries that Send's result.
func blockedSend(t *testing.T, a *inprocConn) <-chan error {
	t.Helper()
	for i := 0; i < inprocDepth; i++ {
		if err := a.Send(msg.NewData(1, uint64(i+1), 0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- a.Send(msg.NewData(1, inprocDepth+1, 0, nil)) }()
	select {
	case err := <-done:
		t.Fatalf("Send on a full direction returned %v without blocking", err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func TestInprocRecvUnblocksFullSend(t *testing.T) {
	a, b := newInprocPair()
	done := blockedSend(t, a)
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("blocked Send after a drain = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("draining the full direction did not unblock Send")
	}
}

func TestInprocCloseUnblocksFullSend(t *testing.T) {
	closeEnds(t, func(t *testing.T, a, b, closer *inprocConn) {
		done := blockedSend(t, a)
		closer.Close()
		select {
		case err := <-done:
			if err != ErrClosed {
				t.Errorf("blocked Send after close = %v, want ErrClosed", err)
			}
		case <-time.After(time.Second):
			t.Fatal("Close did not unblock Send")
		}
	})
}

func TestInprocCloseUnblocksEmptyRecv(t *testing.T) {
	closeEnds(t, func(t *testing.T, a, b, closer *inprocConn) {
		time.AfterFunc(10*time.Millisecond, func() { closer.Close() })
		if err := recvWithin(b, time.Second); err != ErrClosed {
			t.Errorf("blocked Recv after close = %v, want ErrClosed", err)
		}
	})
}

func TestInprocPairAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization")
	}
	a, b := newInprocPair()
	env := msg.NewData(1, 1, 100, nil)
	const burst = 64
	round := func() {
		for i := 0; i < burst; i++ {
			if err := a.Send(env); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < burst; i++ {
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		round() // grow both queue slices to their steady capacity
	}
	if allocs := testing.AllocsPerRun(100, round) / burst; allocs != 0 {
		t.Errorf("Send+Recv: %.3f allocs/envelope, want 0", allocs)
	}

	// The batch lane: one SendBatch of the burst from a reused slice,
	// drained with RecvBatch.
	batch := make([]msg.Envelope, burst)
	for i := range batch {
		batch[i] = env
	}
	batchRound := func() {
		if err := a.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < burst; {
			envs, err := b.RecvBatch()
			if err != nil {
				t.Fatal(err)
			}
			got += len(envs)
		}
	}
	batchRound()
	if allocs := testing.AllocsPerRun(100, batchRound) / burst; allocs != 0 {
		t.Errorf("SendBatch+RecvBatch: %.3f allocs/envelope, want 0", allocs)
	}
}

type sentence struct{ Words []string }

func TestTCPCarriesRegisteredPayloads(t *testing.T) {
	if err := msg.RegisterPayload(sentence{}); err != nil {
		t.Fatal(err)
	}
	tr := TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		env, err := srv.Recv()
		if err != nil {
			return
		}
		_ = srv.Send(env) // echo
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := sentence{Words: []string{"the", "quick", "fox"}}
	if err := c.Send(msg.NewData(1, 1, 42, want)); err != nil {
		t.Fatal(err)
	}
	env, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Payload.(sentence)
	if !ok || len(got.Words) != 3 || got.Words[2] != "fox" {
		t.Errorf("echoed payload = %+v", env.Payload)
	}
}
