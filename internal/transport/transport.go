// Package transport moves envelopes between TART engines.
//
// Three implementations are provided: an in-process transport (a
// swap-buffer link per connection, one lock round-trip per batch in each
// direction, for single-process clusters and tests), a TCP transport
// (length-prefixed binary frames over sockets, used by the distributed
// experiments), and Netem, a network emulator over either that drops,
// duplicates, delays, and reorders frames and partitions links to exercise
// the recovery protocol (the paper's link-failure model: "loss,
// re-ordering, or duplication of messages sent over physical links").
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
// Send and SendBatch are safe for concurrent use; Recv and RecvBatch must be
// called from one goroutine.
type Conn interface {
	// SendBatch transmits envs in order without retaining them; Send is its
	// one-element case. Both return ErrClosed after Close.
	SendBatch(envs []msg.Envelope) error
	Send(env msg.Envelope) error
	// RecvBatch blocks for the envelopes that arrived and were not yet
	// received, valid until the next receive; Recv takes one. Both return
	// ErrClosed when the connection shuts down.
	RecvBatch() ([]msg.Envelope, error)
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

// cursor is a receiving end's current batch, and its Conn's Recv and
// RecvBatch: RecvBatch takes the rest of the batch and Recv one envelope,
// and either has fill replace it once it is used up.
type cursor struct {
	batch []msg.Envelope
	next  int
	fill  func() error
}

func (c *cursor) Recv() (msg.Envelope, error) {
	if c.next == len(c.batch) {
		if err := c.fill(); err != nil {
			return msg.Envelope{}, err
		}
	}
	c.next++
	return c.batch[c.next-1], nil
}

func (c *cursor) RecvBatch() ([]msg.Envelope, error) {
	if c.next == len(c.batch) {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	rest := c.batch[c.next:]
	c.next = len(c.batch)
	return rest, nil
}

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
	l := &inprocListener{addr: addr, net: t}
	l.ready.L = &l.mu
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
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	l.backlog = append(l.backlog, remote)
	l.ready.Signal()
	return local, nil
}

// inprocListener queues dialled connections until Accept takes them. The
// queue is unbounded, so Dial never blocks.
type inprocListener struct {
	addr string
	net  *Inproc

	mu      sync.Mutex
	ready   sync.Cond // on mu: a connection was queued or the listener closed
	backlog []*inprocConn
	closed  bool
}

func (l *inprocListener) Accept() (Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.ready.Wait()
	}
	if l.closed {
		return nil, ErrClosed
	}
	c := l.backlog[0]
	l.backlog[0] = nil
	l.backlog = l.backlog[1:]
	return c, nil
}

func (l *inprocListener) Addr() string { return l.addr }

// Close stops listening and resets every dialled connection Accept has not
// taken, as a TCP listener's close resets its queue: the dialer's Recv
// returns ErrClosed instead of waiting for an acceptor that never comes.
func (l *inprocListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for _, c := range l.backlog {
		c.Close()
	}
	l.backlog = nil
	l.ready.Broadcast()
	l.mu.Unlock()
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	return nil
}

// inprocDepth bounds the envelopes queued in one direction of an
// in-process connection; Send blocks beyond it.
const inprocDepth = 256

// inprocLink is the state two inprocConn endpoints share: one mutex over
// both directions and the closed flag. Closing either end closes the link.
type inprocLink struct {
	mu     sync.Mutex
	closed bool
	dir    [2]inprocQueue
}

// inprocQueue is one direction of a link. Its receiver waits on ready only
// while q is empty and its senders only while q is full, and every drain of
// a full q broadcasts, so a signal on ready never lands on the wrong kind
// of waiter.
type inprocQueue struct {
	q     []msg.Envelope
	ready sync.Cond // on the link's mu
}

// inprocConn is one endpoint of an in-process connection. A receive swaps
// the whole queued slice for its drained batch under one lock acquisition
// and hands the batch out without the lock.
type inprocConn struct {
	link    *inprocLink
	in, out *inprocQueue
	cursor  // the batch taken from in, owned by the receiving goroutine
}

func newInprocPair() (a, b *inprocConn) {
	l := &inprocLink{}
	for i := range l.dir {
		l.dir[i].ready.L = &l.mu
	}
	a = &inprocConn{link: l, out: &l.dir[0], in: &l.dir[1]}
	b = &inprocConn{link: l, out: &l.dir[1], in: &l.dir[0]}
	a.cursor.fill, b.cursor.fill = a.fill, b.fill
	return a, b
}

func (c *inprocConn) Send(env msg.Envelope) error {
	c.link.mu.Lock()
	err := c.put(&env)
	c.link.mu.Unlock()
	return err
}

// SendBatch appends envs to the queue under one lock acquisition per fill:
// a batch larger than the room left waits for the receiver between fills.
func (c *inprocConn) SendBatch(envs []msg.Envelope) error {
	c.link.mu.Lock()
	defer c.link.mu.Unlock()
	for i := range envs {
		if err := c.put(&envs[i]); err != nil {
			return err
		}
	}
	return nil
}

// put appends one envelope to the sending direction, waiting while it is
// full. The caller holds the link's lock.
func (c *inprocConn) put(env *msg.Envelope) error {
	l, d := c.link, c.out
	for len(d.q) >= inprocDepth && !l.closed {
		d.ready.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if len(d.q) == 0 {
		d.ready.Signal() // the receiver waits only on an empty queue
	}
	d.q = append(d.q, *env)
	return nil
}

// fill waits for queued envelopes and swaps the queue for the drained batch.
func (c *inprocConn) fill() error {
	// Drop the delivered payloads before the slice goes back to the
	// senders, so the queue does not keep them reachable.
	clear(c.batch)
	l, d := c.link, c.in
	l.mu.Lock()
	for len(d.q) == 0 && !l.closed {
		d.ready.Wait()
	}
	if len(d.q) == 0 {
		// Closed, and everything queued before the close was delivered.
		l.mu.Unlock()
		c.batch, c.next = c.batch[:0], 0
		return ErrClosed
	}
	if len(d.q) >= inprocDepth {
		d.ready.Broadcast() // wake every sender blocked on the full queue
	}
	c.batch, d.q = d.q, c.batch[:0]
	l.mu.Unlock()
	c.next = 0
	return nil
}

func (c *inprocConn) Close() error {
	l := c.link
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		for i := range l.dir {
			l.dir[i].ready.Broadcast()
		}
	}
	l.mu.Unlock()
	return nil
}
