package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/msg"
)

// DefaultDialTimeout bounds connection establishment. A bare dial against
// a black-holed address (packets dropped, no RST) hangs until the kernel
// gives up — minutes — while the peer redial loop expects to retry on a
// sub-second cadence.
const DefaultDialTimeout = 2 * time.Second

const (
	// chunkTarget is the fill level at which the coalescer starts a new
	// pooled chunk instead of growing the tail — each chunk becomes one
	// iovec entry in the writev batch.
	chunkTarget = 32 << 10
	// maxPendingBytes bounds the coalescing buffer: a Send that finds the
	// pending batch this large waits for the writer and writes it itself,
	// rather than letting a burst pin unbounded memory behind a slow socket.
	maxPendingBytes = 1 << 20
	// idleGap is how long after a write starts the connection still counts
	// as busy. A Send on an idle connection writes inline; inside the gap it
	// hands its frame to the flusher goroutine, which writes at once, so a
	// burst shares writes without any frame waiting on a clock.
	idleGap = 20 * time.Microsecond
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
	// Meter, when set, observes every connection this transport creates:
	// socket bytes by direction, frames per writev batch, and gob-fallback
	// envelopes. Nil is off.
	Meter Observer
}

// Observer receives a TCP connection's wire-level reports. Calls come from
// the connection's writers and its reader, concurrently, and must not
// block.
type Observer interface {
	// SocketWrite reports one writev that carried frames frames in bytes
	// bytes, SocketRead one read of bytes bytes.
	SocketWrite(frames, bytes int)
	SocketRead(bytes int)
	// CodecFallback reports an envelope, sent or received, whose payload
	// rode the self-describing gob fallback instead of a binary codec.
	CodecFallback()
}

var _ Transport = TCP{}

// Listen implements Transport.
func (t TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl, obs: t.Meter}, nil
}

// Dial implements Transport, bounding connection establishment by
// DefaultDialTimeout so a black-holed peer address fails fast enough for
// the caller's redial cadence.
func (t TCP) Dial(addr string) (Conn, error) {
	d := net.Dialer{Timeout: DefaultDialTimeout}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(nc, t.Meter), nil
}

type tcpListener struct {
	nl  net.Listener
	obs Observer
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCPConn(nc, l.obs), nil
}

func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

func (l *tcpListener) Close() error { return l.nl.Close() }

// tcpConn frames envelopes with the msg binary codec over one socket.
//
// Writes scatter-gather and clock themselves: each send appends its frames to
// a pooled chunk, chunks accumulate into a batch, and a write ships the
// whole batch in one writev, outside the lock Sends append under. A Send
// that finds the connection idle — no write in flight and none started in
// the last idleGap — writes inline, so sparse traffic pays no hand-off.
// Otherwise it kicks the flusher goroutine, which writes as soon as it runs
// and keeps writing until the batch is empty: frames that arrive while a
// write is in flight join the next one, so under load batches grow on
// their own and no frame waits for a timer.
//
// Reads are bulk: the socket fills a growable buffer and every whole frame
// in it decodes into one received batch (msg.DecodeFrame never retains the
// buffer), so one read syscall typically yields many envelopes.
type tcpConn struct {
	nc  net.Conn
	obs Observer // nil is off

	sendMu        sync.Mutex
	chunks        []*[]byte // encoded frames awaiting a write; tail is active
	pendingBytes  int
	pendingFrames int
	lastWrite     time.Time // when the newest write took its batch
	kicked        bool      // the flusher is due to take the pending batch
	sendErr       error     // sticky write error, surfaced on later Sends

	// writeMu is held across a write; the batch being written and its
	// iovec belong to the holder.
	writeMu sync.Mutex
	writing []*[]byte
	iov     net.Buffers

	flushKick chan struct{}
	flushDone chan struct{}

	// Reader state; Recv is single-goroutine per the Conn contract. batch
	// holds the frames the last RecvBatch decoded.
	rbuf         []byte
	rstart, rend int
	batch        []msg.Envelope

	closeOnce sync.Once
	closeErr  error
}

func newTCPConn(nc net.Conn, obs Observer) *tcpConn {
	c := &tcpConn{
		nc:        nc,
		obs:       obs,
		flushKick: make(chan struct{}, 1),
		flushDone: make(chan struct{}),
	}
	go c.flushLoop()
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
	for {
		if n, err := c.sendSome([]msg.Envelope{env}); n == 1 || err != nil {
			return err
		}
	}
}

func (c *tcpConn) SendBatch(envs []msg.Envelope) error {
	for len(envs) > 0 {
		n, err := c.sendSome(envs)
		if err != nil {
			return err
		}
		envs = envs[n:]
	}
	return nil
}

// sendSome frames a prefix of envs into the pending batch under one sendMu
// acquisition and one idle-gap clock read — all of them, unless the batch
// fills first — and sees it written, returning how many it took.
func (c *tcpConn) sendSome(envs []msg.Envelope) (int, error) {
	c.sendMu.Lock()
	if c.sendErr != nil {
		err := c.sendErr
		c.sendMu.Unlock()
		return 0, err
	}
	n, fellBack := 0, 0
	var encErr error
	for n < len(envs) && c.pendingBytes < maxPendingBytes {
		tail := c.tailChunk()
		out, fb, err := msg.AppendFrame(*tail, envs[n])
		if err != nil {
			// AppendFrame returns the buffer unchanged on error: the frame
			// boundary is intact and the stream is not poisoned, so an
			// unencodable payload fails only its own send.
			encErr = err
			break
		}
		if fb {
			fellBack++
		}
		c.pendingBytes += len(out) - len(*tail)
		*tail = out
		c.pendingFrames++
		n++
	}
	full := c.pendingBytes >= maxPendingBytes
	inline := full || !c.kicked && time.Since(c.lastWrite) >= idleGap
	c.sendMu.Unlock()
	for ; fellBack > 0 && c.obs != nil; fellBack-- {
		c.obs.CodecFallback()
	}
	switch {
	case encErr != nil:
		c.handOff() // what the batch framed before the failure still leaves
		return n, encErr
	case full:
		// Back-pressure: wait for the writer rather than grow the batch.
		c.writeMu.Lock()
	case !inline || !c.writeMu.TryLock():
		c.handOff()
		return n, nil
	}
	c.writeLocked()
	c.writeMu.Unlock()
	return n, c.writeErr()
}

// handOff leaves the pending batch to the flusher, waking it unless it is
// already due to take the batch.
func (c *tcpConn) handOff() {
	c.sendMu.Lock()
	kick := !c.kicked
	c.kicked = true
	c.sendMu.Unlock()
	if kick {
		select {
		case c.flushKick <- struct{}{}:
		default:
		}
	}
}

// flushLoop writes whenever it is kicked, until the batch is empty. It is
// parked on the kick channel while the connection is idle.
func (c *tcpConn) flushLoop() {
	for {
		select {
		case <-c.flushDone:
			return
		case <-c.flushKick:
		}
		c.writeMu.Lock()
		for c.writeLocked() {
		}
		c.writeMu.Unlock()
	}
}

// writeLocked takes the pending batch and ships it as one writev
// (net.Buffers.WriteTo), then recycles its chunks to the codec pool. The
// caller holds writeMu; Sends keep appending to a fresh batch meanwhile.
// It reports whether it wrote a batch.
func (c *tcpConn) writeLocked() bool {
	c.sendMu.Lock()
	if c.sendErr != nil || c.pendingBytes == 0 {
		c.kicked = false // nothing left for the flusher; the next Send decides anew
		c.sendMu.Unlock()
		return false
	}
	c.writing, c.chunks = c.chunks, c.writing[:0]
	frames, bytes := c.pendingFrames, c.pendingBytes
	c.pendingBytes, c.pendingFrames = 0, 0
	c.lastWrite = time.Now()
	c.sendMu.Unlock()

	batch := c.iov[:0]
	for _, ch := range c.writing {
		if len(*ch) > 0 {
			batch = append(batch, *ch)
		}
	}
	c.iov = batch                 // keep the (possibly regrown) backing array for reuse
	_, err := batch.WriteTo(c.nc) // advances batch; c.iov keeps the array
	for i := range c.iov {
		c.iov[i] = nil // don't pin chunk arrays between writes
	}
	c.iov = c.iov[:0]
	for i, ch := range c.writing {
		msg.PutBuffer(ch)
		c.writing[i] = nil
	}
	c.writing = c.writing[:0]
	if err != nil {
		c.sendMu.Lock()
		c.sendErr = c.mapErr(err)
		c.sendMu.Unlock()
		return false
	}
	if c.obs != nil {
		c.obs.SocketWrite(frames, bytes)
	}
	return true
}

// writeErr returns the sticky write error, if any.
func (c *tcpConn) writeErr() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.sendErr
}

func (c *tcpConn) Recv() (msg.Envelope, error) {
	for {
		if c.rend > c.rstart {
			env, n, fellBack, err := msg.DecodeFrame(c.rbuf[c.rstart:c.rend])
			if err == nil {
				c.took(n, fellBack)
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
			if c.obs != nil {
				c.obs.SocketRead(n)
			}
		}
		if err != nil && n == 0 {
			return msg.Envelope{}, c.mapErr(err)
		}
		// Bytes alongside an error: decode what arrived; the error
		// resurfaces on the next empty read.
	}
}

// RecvBatch receives one frame as Recv does, then decodes every further
// whole frame already in the read buffer into the same batch.
func (c *tcpConn) RecvBatch() ([]msg.Envelope, error) {
	env, err := c.Recv()
	if err != nil {
		return nil, err
	}
	clear(c.batch) // drop the payloads handed out last time
	c.batch = append(c.batch[:0], env)
	for c.rend > c.rstart {
		env, n, fellBack, err := msg.DecodeFrame(c.rbuf[c.rstart:c.rend])
		if err != nil {
			break // a short frame waits for the next read, a bad one for the next call
		}
		c.took(n, fellBack)
		c.batch = append(c.batch, env)
	}
	return c.batch, nil
}

// took consumes a decoded frame of n bytes from the read buffer.
func (c *tcpConn) took(n int, fellBack bool) {
	c.rstart += n
	if fellBack && c.obs != nil {
		c.obs.CodecFallback()
	}
}

func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() {
		// Write what is still pending so a graceful close does not strand
		// the tail of the stream in the batch. The deadline bounds the wait
		// for a write in flight to a peer that stopped reading.
		close(c.flushDone)
		_ = c.nc.SetWriteDeadline(time.Now().Add(DefaultDialTimeout))
		c.writeMu.Lock()
		c.writeLocked()
		c.closeErr = c.nc.Close()
		c.writeMu.Unlock()
	})
	return c.closeErr
}

func (c *tcpConn) mapErr(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	return err
}
