package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/trace/span"
)

// DefaultFlushDelay is the bounded linger applied to outgoing envelopes
// when TCP.FlushDelay is zero: an encoded envelope waits at most this long
// for companions before the buffer is flushed to the socket.
const DefaultFlushDelay = 50 * time.Microsecond

// DefaultDialTimeout bounds connection establishment when TCP.DialTimeout
// is zero. A bare dial against a black-holed address (packets dropped, no
// RST) hangs until the kernel gives up — minutes — while the peer redial
// loop expects to retry on a sub-second cadence.
const DefaultDialTimeout = 2 * time.Second

const (
	// chunkTarget is the fill level at which the coalescer starts a new
	// pooled chunk instead of growing the tail — each chunk becomes one
	// iovec entry in the writev batch.
	chunkTarget = 32 << 10
	// maxPendingBytes bounds the coalescing buffer: a Send that would push
	// the pending batch past this flushes inline rather than letting a
	// burst pin unbounded memory behind the linger timer.
	maxPendingBytes = 1 << 20
	// readBufStart is the initial bulk read buffer; it doubles on demand up
	// to one frame of msg.MaxFrameSize.
	readBufStart = 64 << 10
)

// TCP is a Transport over real sockets. Envelopes are carried as
// length-prefixed binary frames (msg.AppendFrame); payload types with a
// registered binary codec (msg.RegisterBinaryPayload) encode zero-alloc,
// all others ride a self-describing gob fallback and must be registered
// with msg.RegisterPayload before use.
type TCP struct {
	// FlushDelay enables Nagle-style write coalescing: the first envelope
	// after an idle window is flushed to the socket immediately (sparse
	// traffic pays no latency tax), while envelopes sent within FlushDelay
	// of the previous flush linger in the batch until a timer closes the
	// window — a burst shares one framing pass and one writev. Zero means
	// DefaultFlushDelay; negative disables coalescing (one flush per Send).
	FlushDelay time.Duration

	// Spans, when set, records a coalescing-linger span for every
	// span-sampled envelope that waits in the write buffer: Start at
	// encode, End at the flush that put it on the socket.
	Spans *span.Collector

	// DialTimeout bounds Dial's connection establishment. Zero means
	// DefaultDialTimeout; negative disables the bound (bare net.Dial).
	DialTimeout time.Duration

	// Meter, when set, observes wire-level metrics on every connection this
	// transport creates: socket bytes by direction, frames per writev
	// batch, and gob-fallback envelopes.
	Meter *Meter
}

var _ Transport = TCP{}

func (t TCP) flushDelay() time.Duration {
	if t.FlushDelay == 0 {
		return DefaultFlushDelay
	}
	if t.FlushDelay < 0 {
		return 0
	}
	return t.FlushDelay
}

func (t TCP) dialTimeout() time.Duration {
	if t.DialTimeout == 0 {
		return DefaultDialTimeout
	}
	if t.DialTimeout < 0 {
		return 0
	}
	return t.DialTimeout
}

// Listen implements Transport.
func (t TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl, flushDelay: t.flushDelay(), spans: t.Spans, meter: t.Meter}, nil
}

// Dial implements Transport, bounding connection establishment by the
// configured DialTimeout so a black-holed peer address fails fast enough
// for the caller's redial cadence.
func (t TCP) Dial(addr string) (Conn, error) {
	d := net.Dialer{Timeout: t.dialTimeout()}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(nc, t.flushDelay(), t.Spans, t.Meter), nil
}

type tcpListener struct {
	nl         net.Listener
	flushDelay time.Duration
	spans      *span.Collector
	meter      *Meter
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCPConn(nc, l.flushDelay, l.spans, l.meter), nil
}

func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

func (l *tcpListener) Close() error { return l.nl.Close() }

// CoalesceStats counts a connection's outgoing envelopes and the socket
// flushes that carried them; Flushes/Envelopes is the coalescing ratio
// (1.0 = one syscall per envelope, lower is better).
type CoalesceStats struct {
	Envelopes uint64
	Flushes   uint64
}

// tcpConn frames envelopes with the msg binary codec over one socket.
//
// Writes scatter-gather: each Send appends its frame to a pooled chunk,
// chunks accumulate into a net.Buffers batch, and a flush ships the whole
// batch in one writev — a burst is one framing pass and one syscall. With
// a positive flushDelay, a Send that follows a flush-quiet window flushes
// inline; Sends inside the window only encode, and a timer drains the
// batch when the window closes — so sparse envelopes ship at once while a
// burst shares one writev and lingers at most flushDelay.
//
// Reads are bulk: the socket fills a growable buffer and frames decode
// straight out of it (msg.DecodeFrame never retains the buffer), so one
// read syscall typically yields many envelopes.
type tcpConn struct {
	nc         net.Conn
	flushDelay time.Duration
	spans      *span.Collector
	meter      *Meter

	sendMu        sync.Mutex
	chunks        []*[]byte // encoded frames awaiting flush; tail is active
	iov           net.Buffers
	pendingBytes  int
	pendingFrames int
	flushKick     chan struct{} // wakes the flush loop; nil when coalescing is off
	flushDone     chan struct{}
	flushArmed    bool
	lastFlush     time.Time
	sendErr       error // sticky flush error, surfaced on later Sends
	lingering     []span.Span

	envelopes atomic.Uint64
	flushes   atomic.Uint64

	// Reader state; Recv is single-goroutine per the Conn contract.
	rbuf         []byte
	rstart, rend int

	closeOnce sync.Once
	closeErr  error
}

func newTCPConn(nc net.Conn, flushDelay time.Duration, spans *span.Collector, meter *Meter) *tcpConn {
	c := &tcpConn{
		nc:         nc,
		flushDelay: flushDelay,
		spans:      spans,
		meter:      meter,
	}
	if flushDelay > 0 {
		c.flushKick = make(chan struct{}, 1)
		c.flushDone = make(chan struct{})
		go c.flushLoop()
	}
	return c
}

// tailChunk returns the chunk new frames append to, starting a fresh
// pooled one when the tail has reached its target fill.
func (c *tcpConn) tailChunk() *[]byte {
	if n := len(c.chunks); n > 0 && len(*c.chunks[n-1]) < chunkTarget {
		return c.chunks[n-1]
	}
	b := msg.GetBuffer()
	c.chunks = append(c.chunks, b)
	return b
}

func (c *tcpConn) Send(env msg.Envelope) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.sendErr != nil {
		return c.sendErr
	}
	tail := c.tailChunk()
	out, fellBack, err := msg.AppendFrame(*tail, env)
	if err != nil {
		// AppendFrame returns the buffer unchanged on error: the frame
		// boundary is intact and the stream is not poisoned, so an
		// unencodable payload fails only its own Send.
		return err
	}
	c.pendingBytes += len(out) - len(*tail)
	*tail = out
	c.pendingFrames++
	c.envelopes.Add(1)
	if fellBack {
		c.meter.fallback()
	}
	if c.flushDelay <= 0 || c.pendingBytes >= maxPendingBytes {
		return c.flushLocked()
	}
	if time.Since(c.lastFlush) >= c.flushDelay {
		// Idle window: ship immediately — coalescing must never add
		// latency to sparse traffic, only batch bursts.
		return c.flushLocked()
	}
	if c.spans.Decided(env.Trace, env.Origin) {
		// The envelope will linger in the batch until the window closes;
		// flushLocked stamps the span's End.
		c.lingering = append(c.lingering, span.Span{
			Origin: env.Origin, Phase: span.PhaseLinger, Wire: env.Wire,
			Seq: env.Seq, Hops: env.Hops, Start: time.Now(),
			StartVT: env.VT, EndVT: env.VT,
		})
	}
	if !c.flushArmed {
		c.flushArmed = true
		select {
		case c.flushKick <- struct{}{}:
		default:
		}
	}
	return nil
}

// flushLoop drains the send batch once per linger window. The goroutine
// is fully parked between windows: it blocks on the kick channel while the
// connection is idle and on a runtime timer for the window remainder, so
// an idle or sparsely-used connection burns no CPU. (An earlier version
// yielded in a Gosched loop to dodge timer slop, which charged up to a
// full linger window of CPU per armed window — continuous burn under
// sustained traffic. Timer slop only delays envelopes that chose to
// linger, and the first envelope after a quiet window still flushes
// inline, so sparse traffic keeps its zero-latency path.)
func (c *tcpConn) flushLoop() {
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-c.flushDone:
			return
		case <-c.flushKick:
		}
		c.sendMu.Lock()
		deadline := c.lastFlush.Add(c.flushDelay)
		c.sendMu.Unlock()
		if wait := time.Until(deadline); wait > 0 {
			timer.Reset(wait)
			select {
			case <-c.flushDone:
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				return
			case <-timer.C:
			}
		}
		c.sendMu.Lock()
		c.flushArmed = false
		if c.sendErr == nil && c.pendingBytes > 0 {
			if err := c.flushLocked(); err != nil {
				c.sendErr = err
			}
		}
		c.sendMu.Unlock()
	}
}

// flushLocked ships the pending batch as one writev (net.Buffers.WriteTo)
// and recycles the chunks to the codec pool. Caller holds sendMu.
func (c *tcpConn) flushLocked() error {
	c.flushes.Add(1)
	c.lastFlush = time.Now()
	if len(c.lingering) > 0 {
		for _, s := range c.lingering {
			s.End = c.lastFlush
			c.spans.Record(s)
		}
		c.lingering = c.lingering[:0]
	}
	if c.pendingBytes == 0 {
		return nil
	}
	batch := c.iov[:0]
	for _, ch := range c.chunks {
		if len(*ch) > 0 {
			batch = append(batch, *ch)
		}
	}
	c.iov = batch // keep the (possibly regrown) backing array for reuse
	frames, bytes := c.pendingFrames, c.pendingBytes
	_, err := batch.WriteTo(c.nc) // advances batch; c.iov keeps the array
	for i := range c.iov {
		c.iov[i] = nil // don't pin chunk arrays between flushes
	}
	c.iov = c.iov[:0]
	for _, ch := range c.chunks {
		msg.PutBuffer(ch)
	}
	c.chunks = c.chunks[:0]
	c.pendingBytes, c.pendingFrames = 0, 0
	if err != nil {
		return c.mapErr(err)
	}
	c.meter.sent(int64(bytes))
	c.meter.writevBatch(frames)
	return nil
}

// Stats reports the connection's coalescing counters.
func (c *tcpConn) Stats() CoalesceStats {
	return CoalesceStats{Envelopes: c.envelopes.Load(), Flushes: c.flushes.Load()}
}

func (c *tcpConn) Recv() (msg.Envelope, error) {
	for {
		if c.rend > c.rstart {
			env, n, fellBack, err := msg.DecodeFrame(c.rbuf[c.rstart:c.rend])
			if err == nil {
				c.rstart += n
				if fellBack {
					c.meter.fallback()
				}
				return env, nil
			}
			if !errors.Is(err, msg.ErrShortFrame) {
				return msg.Envelope{}, c.mapErr(err)
			}
		}
		// Partial (or no) frame buffered: compact the window to the front
		// and read more. Growth is bounded — DecodeFrame rejects a declared
		// length beyond msg.MaxFrameSize before ever reporting short, so a
		// hostile length prefix cannot drive unbounded allocation here.
		if c.rbuf == nil {
			c.rbuf = make([]byte, readBufStart)
		}
		if c.rstart > 0 {
			copy(c.rbuf, c.rbuf[c.rstart:c.rend])
			c.rend -= c.rstart
			c.rstart = 0
		}
		if c.rend == len(c.rbuf) {
			grown := make([]byte, 2*len(c.rbuf))
			copy(grown, c.rbuf[:c.rend])
			c.rbuf = grown
		}
		n, err := c.nc.Read(c.rbuf[c.rend:])
		if n > 0 {
			c.rend += n
			c.meter.recv(int64(n))
		}
		if err != nil && n == 0 {
			return msg.Envelope{}, c.mapErr(err)
		}
		// Bytes alongside an error: decode what arrived; the error
		// resurfaces on the next empty read.
	}
}

func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() {
		// Drain any lingering frames so a graceful close does not strand
		// the tail of the stream in the coalescing batch.
		if c.flushDone != nil {
			close(c.flushDone)
		}
		c.sendMu.Lock()
		if c.sendErr == nil && c.pendingBytes > 0 {
			_ = c.flushLocked()
		}
		c.sendMu.Unlock()
		c.closeErr = c.nc.Close()
	})
	return c.closeErr
}

func (c *tcpConn) mapErr(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	return err
}
