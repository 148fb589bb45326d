// Package transport moves envelopes between TART engines.
//
// Three implementations are provided: an in-process transport (channel
// pairs, for single-process clusters and tests), a TCP transport
// (length-prefixed binary frames over sockets, used by the distributed
// experiments), and a fault-injecting wrapper that drops, duplicates,
// delays, and reorders frames to exercise the recovery protocol (the
// paper's link-failure model: "loss, re-ordering, or duplication of
// messages sent over physical links").
//
// The transport itself makes no reliability promises beyond per-connection
// FIFO for frames it delivers; exactly-once, gap repair, and duplicate
// discard are the engine layer's job (sequence numbers + replay buffers).
package transport

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/msg"
)

// Conn is one bidirectional envelope stream between two engines.
// Send is safe for concurrent use; Recv must be called from one goroutine.
type Conn interface {
	// Send transmits one envelope. It returns ErrClosed after Close.
	Send(env msg.Envelope) error
	// Recv blocks for the next envelope. It returns ErrClosed when the
	// connection shuts down.
	Recv() (msg.Envelope, error)
	// Close shuts the connection down, unblocking Recv on both ends.
	Close() error
}

// Listener accepts inbound connections on an address.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Addr returns the bound address (useful with dynamic ports).
	Addr() string
	// Close stops listening; blocked Accepts return ErrClosed.
	Close() error
}

// Transport creates listeners and outbound connections.
type Transport interface {
	// Listen binds an address.
	Listen(addr string) (Listener, error)
	// Dial connects to a listening address.
	Dial(addr string) (Conn, error)
}

// ErrClosed is returned by operations on closed connections or listeners.
var ErrClosed = errors.New("transport: closed")

// Inproc is an in-process Transport: addresses are arbitrary strings in a
// shared registry. The zero value is not usable; create with NewInproc.
// A single Inproc instance represents one "network"; engines sharing it
// can reach each other.
type Inproc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

var _ Transport = (*Inproc)(nil)

// NewInproc returns an empty in-process network.
func NewInproc() *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener)}
}

// Listen implements Transport.
func (t *Inproc) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.listeners[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already bound", addr)
	}
	l := &inprocListener{
		addr:    addr,
		backlog: make(chan *inprocConn, 16),
		closed:  make(chan struct{}),
		net:     t,
	}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *Inproc) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	local, remote := newInprocPair()
	select {
	case l.backlog <- remote:
		return local, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

type inprocListener struct {
	addr    string
	backlog chan *inprocConn
	closed  chan struct{}
	once    sync.Once
	net     *Inproc
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

// inprocConn is one endpoint of an in-process connection.
type inprocConn struct {
	out    chan msg.Envelope
	in     chan msg.Envelope
	closed chan struct{}
	peer   *inprocConn
	once   sync.Once
}

func newInprocPair() (a, b *inprocConn) {
	ab := make(chan msg.Envelope, 256)
	ba := make(chan msg.Envelope, 256)
	a = &inprocConn{out: ab, in: ba, closed: make(chan struct{})}
	b = &inprocConn{out: ba, in: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *inprocConn) Send(env msg.Envelope) error {
	// Check closure first: with buffer space available the select below
	// has multiple ready cases and picks among them at random, which
	// would let a send on an already-closed endpoint succeed.
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	default:
	}
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	case c.out <- env:
		return nil
	}
}

func (c *inprocConn) Recv() (msg.Envelope, error) {
	select {
	case env := <-c.in:
		return env, nil
	case <-c.closed:
		// Drain anything already buffered before reporting closure.
		select {
		case env := <-c.in:
			return env, nil
		default:
			return msg.Envelope{}, ErrClosed
		}
	case <-c.peer.closed:
		select {
		case env := <-c.in:
			return env, nil
		default:
			return msg.Envelope{}, ErrClosed
		}
	}
}

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}
