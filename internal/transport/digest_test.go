package transport

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/trace"
)

// acceptOne runs Accept in the background so a test can dial concurrently.
func acceptOne(t testing.TB, l Listener) <-chan Conn {
	t.Helper()
	ch := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	return ch
}

func TestLoopbackDigestsMatchSocketPath(t *testing.T) {
	// The determinism requirement: a payload delivered over a real socket
	// and the same payload handed across in process (by value, never
	// serialized) must produce the same audit digest, because PayloadDigest
	// is a function of the value, not of the transport representation.
	payloads := []any{"hello", []byte{1, 2, 3}, int64(42), nil}
	sc, srv, cleanup := tcpPair(t, TCP{FlushDelay: -1})
	defer cleanup()
	ic, isrv := newInprocPair()
	defer ic.Close()
	defer isrv.Close()

	for i, p := range payloads {
		env := msg.NewData(1, uint64(i+1), 100, p)
		if err := sc.Send(env); err != nil {
			t.Fatal(err)
		}
		viaSocket, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := ic.Send(env); err != nil {
			t.Fatal(err)
		}
		viaInproc, err := isrv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		ds, di := trace.PayloadDigest(viaSocket.Payload), trace.PayloadDigest(viaInproc.Payload)
		if ds != di {
			t.Errorf("payload %d (%T): socket digest %x != in-process digest %x", i, p, ds, di)
		}
	}
}
