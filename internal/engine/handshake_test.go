package engine

import (
	"net"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// announcingTCP is the TCP transport with its listener's bound address
// published and every accepted connection announced.
type announcingTCP struct {
	transport.TCP
	addr     chan string
	accepted chan struct{}
}

func (a announcingTCP) Listen(addr string) (transport.Listener, error) {
	l, err := a.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	a.addr <- l.Addr()
	return announcingListener{l, a.accepted}, nil
}

type announcingListener struct {
	transport.Listener
	accepted chan struct{}
}

func (l announcingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// requireStopsInTime stops e and fails unless Stop returns within twice the
// handshake bound.
func requireStopsInTime(t *testing.T, e *Engine) {
	t.Helper()
	stopped := make(chan struct{})
	start := time.Now()
	go func() {
		e.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Logf("Stop returned after %v", time.Since(start).Round(time.Millisecond))
	case <-time.After(2 * transport.DefaultDialTimeout):
		t.Fatalf("Stop still waiting on an unanswered handshake after %v", 2*transport.DefaultDialTimeout)
	}
}

// TestStopBoundsUnansweredHandshake checks that a peer handshake that never
// completes cannot hold Engine.Stop: on the dial side the peer's address
// accepts the connection and never replies to our hello; on the accept side
// a client connects and never sends one.
func TestStopBoundsUnansweredHandshake(t *testing.T) {
	tp := fig1Topo(t, true) // senders on A, merger on B; A dials B
	specs := fig1Specs()

	t.Run("dial", func(t *testing.T) {
		squatter, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer squatter.Close()
		// The squatter hands over A's connection once A's hello has arrived,
		// so A is then waiting for a reply that never comes.
		helloed := make(chan net.Conn)
		go func() {
			c, err := squatter.Accept()
			if err != nil {
				return
			}
			if _, err := c.Read(make([]byte, 1)); err != nil {
				c.Close()
				return
			}
			helloed <- c
		}()
		engA, err := New(Config{
			Name:       "A",
			Topo:       tp,
			Components: map[string]ComponentSpec{"sender1": specs["sender1"], "sender2": specs["sender2"]},
			Transport:  transport.TCP{},
			Addrs:      map[string]string{"A": "127.0.0.1:0", "B": squatter.Addr().String()},
			Metrics:    &trace.Metrics{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := engA.Start(); err != nil {
			t.Fatal(err)
		}
		select {
		case c := <-helloed:
			defer c.Close()
		case <-time.After(5 * time.Second):
			t.Fatal("A never sent its peer a hello")
		}
		requireStopsInTime(t, engA)
	})

	t.Run("accept", func(t *testing.T) {
		tr := announcingTCP{addr: make(chan string, 1), accepted: make(chan struct{}, 1)}
		engB, err := New(Config{
			Name:       "B",
			Topo:       tp,
			Components: map[string]ComponentSpec{"merger": specs["merger"]},
			Transport:  tr,
			Addrs:      map[string]string{"B": "127.0.0.1:0"},
			Metrics:    &trace.Metrics{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := engB.Start(); err != nil {
			t.Fatal(err)
		}
		mute, err := net.Dial("tcp", <-tr.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer mute.Close() // connected, never says hello
		<-tr.accepted
		requireStopsInTime(t, engB)
	})
}
