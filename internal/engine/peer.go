package engine

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vt"
)

// peerSet manages the engine's connections to the other engines it shares
// wires with: listening, dialing (the lexicographically smaller engine name
// dials), handshaking, reconnecting after failures, and re-driving the
// recovery protocol on every (re)connect.
type peerSet struct {
	e *Engine

	// conns is the live connection per peer, published copy-on-write so
	// send reads it without a lock on every outbound envelope; writers hold
	// mu and swap in a modified clone.
	conns atomic.Pointer[map[string]transport.Conn]
	// needed maps each peer this engine shares wires with (fixed at
	// construction) to the time a frame was last received from it, as
	// nanoseconds since born (0: never) — a plain atomic store per inbound
	// envelope.
	needed map[string]*atomic.Int64
	born   time.Time

	mu       sync.Mutex
	gens     map[string]uint64 // highest handshake generation seen per peer
	listener transport.Listener
	stopped  bool
	wg       sync.WaitGroup

	// Silence-promise coalescing: promises bound for peers park here for
	// one flush window, keeping only the newest watermark per wire (the
	// newest subsumes the rest — promises are monotone). silCoalesced
	// counts promises absorbed by a newer one instead of being transmitted.
	silMu        sync.Mutex
	silPending   map[string]map[msg.WireID]pendingSilence
	silTimer     *time.Timer
	silArmed     bool
	silLast      time.Time
	silCoalesced *trace.Counter
}

// pendingSilence is one coalesced peer-bound promise: the watermark plus the
// sender's data-prefix attestation (both monotone per wire, so coalescing
// keeps the max of each).
type pendingSilence struct {
	promise vt.Time
	seq     uint64
}

func newPeerSet(e *Engine) *peerSet {
	gens := make(map[string]uint64, len(e.cfg.PeerGens))
	for peer, g := range e.cfg.PeerGens {
		gens[peer] = g
	}
	needed := make(map[string]*atomic.Int64)
	for _, w := range e.tp.Wires() {
		if w.From == topo.External || w.To == topo.External {
			continue
		}
		fromEng, toEng := e.tp.EngineOf(w.From), e.tp.EngineOf(w.To)
		if fromEng != e.name && toEng != e.name {
			continue
		}
		for _, peer := range [2]string{fromEng, toEng} {
			if peer != e.name && needed[peer] == nil {
				needed[peer] = new(atomic.Int64)
			}
		}
	}
	return &peerSet{
		e:          e,
		needed:     needed,
		born:       time.Now(),
		gens:       gens,
		silPending: make(map[string]map[msg.WireID]pendingSilence),
		silCoalesced: e.metrics.Registry().Counter(trace.MetricSilenceCoalesce,
			"Peer-bound silence promises absorbed by a newer promise within a flush window."),
	}
}

// hello builds this engine's handshake/heartbeat frame: the engine name
// plus its generation fencing token (carried in Seq — hello frames never
// touch wires, so the field is free).
func (p *peerSet) hello() msg.Envelope {
	return msg.Envelope{Kind: msg.KindHello, Payload: p.e.name, Seq: p.e.cfg.Generation}
}

// admit checks a handshake's generation against the highest this engine
// has seen from the peer. A stale generation means the counterpart is a
// zombie — an earlier incarnation that was failed over — and must not
// re-join; an equal or newer one is recorded and admitted.
func (p *peerSet) admit(peer string, gen uint64) bool {
	p.mu.Lock()
	if gen < p.gens[peer] {
		p.mu.Unlock()
		p.e.metrics.Registry().Counter(trace.MetricFencedHellos,
			"Peer handshakes rejected because they carried a stale generation (zombie fencing).",
			trace.L("peer", peer)).Inc()
		p.e.rec.Record(trace.Event{Kind: trace.EvPeerDown, VT: vt.Never, Wire: -1,
			Note: fmt.Sprintf("fenced stale generation %d from peer %s", gen, peer)})
		return false
	}
	p.gens[peer] = gen
	p.mu.Unlock()
	return true
}

// start brings up the listener and dialer loops.
func (p *peerSet) start() error {
	e := p.e
	if len(p.needed) == 0 {
		return nil
	}
	if e.cfg.Transport == nil {
		return fmt.Errorf("engine: %q has remote wires but no transport", e.name)
	}
	addr, ok := e.cfg.Addrs[e.name]
	if !ok {
		return fmt.Errorf("engine: no address configured for %q", e.name)
	}
	l, err := e.cfg.Transport.Listen(addr)
	if err != nil {
		return fmt.Errorf("engine: %q listen: %w", e.name, err)
	}
	p.mu.Lock()
	p.listener = l
	p.mu.Unlock()

	p.wg.Add(1)
	go p.acceptLoop(l)

	for peer := range p.needed {
		if e.name < peer {
			p.wg.Add(1)
			go p.dialLoop(peer)
		}
	}
	return nil
}

func (p *peerSet) stop() {
	// Ship parked silence promises while connections are still up, so a
	// graceful shutdown's final promises (e.g. end-of-stream silence) are
	// not stranded in the coalescing window.
	p.silMu.Lock()
	if p.silTimer != nil {
		p.silTimer.Stop()
	}
	p.silMu.Unlock()
	p.flushSilence()
	p.mu.Lock()
	p.stopped = true
	if p.listener != nil {
		p.listener.Close()
	}
	conns := p.connTable()
	p.conns.Store(nil)
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

// connTable returns the published connection table; it must not be
// modified.
func (p *peerSet) connTable() map[string]transport.Conn {
	if m := p.conns.Load(); m != nil {
		return *m
	}
	return nil
}

// setConnLocked publishes a connection table with peer bound to c, or
// unbound when c is nil. The caller holds p.mu.
func (p *peerSet) setConnLocked(peer string, c transport.Conn) {
	next := maps.Clone(p.connTable())
	if next == nil {
		next = make(map[string]transport.Conn, 1)
	}
	if c != nil {
		next[peer] = c
	} else {
		delete(next, peer)
	}
	p.conns.Store(&next)
}

// send transmits an envelope to a named peer engine, dropping it if the
// link is down (replay buffers and retry loops provide recovery).
func (p *peerSet) send(peer string, env msg.Envelope) {
	c := p.connTable()[peer]
	if c == nil {
		return
	}
	if err := c.Send(env); err != nil {
		p.dropConn(peer, c)
	}
}

// sendSilence transmits a silence promise to a peer, coalescing through the
// engine's flush window: the promise parks in silPending and ships with the
// newest watermark per wire. A promise arriving after a flush-quiet window
// flushes inline (sparse silence — probe responses, end-of-stream — pays no
// latency), while promises inside the window wait for the closing timer.
// Lossless, because a newer promise on the same wire strictly subsumes an
// older one.
func (p *peerSet) sendSilence(peer string, env msg.Envelope) {
	window := p.e.cfg.SilenceFlushEvery
	if window <= 0 {
		p.send(peer, env)
		return
	}
	p.silMu.Lock()
	m := p.silPending[peer]
	if m == nil {
		m = make(map[msg.WireID]pendingSilence)
		p.silPending[peer] = m
	}
	next := pendingSilence{promise: env.Promise, seq: env.Seq}
	if old, ok := m[env.Wire]; ok {
		p.silCoalesced.Inc()
		if env.Promise <= old.promise && env.Seq <= old.seq {
			p.silMu.Unlock()
			return
		}
		if old.promise > next.promise {
			next.promise = old.promise
		}
		if old.seq > next.seq {
			next.seq = old.seq
		}
	}
	m[env.Wire] = next
	if time.Since(p.silLast) >= window {
		p.silMu.Unlock()
		p.flushSilence()
		return
	}
	if !p.silArmed {
		p.silArmed = true
		if p.silTimer == nil {
			p.silTimer = time.AfterFunc(window, p.flushSilence)
		} else {
			p.silTimer.Reset(window)
		}
	}
	p.silMu.Unlock()
}

// flushSilence ships every parked promise (newest per wire), in sorted
// peer and wire order.
func (p *peerSet) flushSilence() {
	p.silMu.Lock()
	pending := p.silPending
	p.silPending = make(map[string]map[msg.WireID]pendingSilence)
	p.silArmed = false
	p.silLast = time.Now()
	p.silMu.Unlock()
	peers := make([]string, 0, len(pending))
	for peer := range pending {
		peers = append(peers, peer)
	}
	sort.Strings(peers)
	for _, peer := range peers {
		wires := make([]msg.WireID, 0, len(pending[peer]))
		for w := range pending[peer] {
			wires = append(wires, w)
		}
		sort.Slice(wires, func(i, j int) bool { return wires[i] < wires[j] })
		for _, w := range wires {
			ps := pending[peer][w]
			p.send(peer, msg.NewSilenceAfter(w, ps.promise, ps.seq))
		}
	}
}

// heartbeat sends a hello on every live connection.
func (p *peerSet) heartbeat() {
	for peer, c := range p.connTable() {
		if err := c.Send(p.hello()); err != nil {
			p.dropConn(peer, c)
		}
	}
}

func (p *peerSet) acceptLoop(l transport.Listener) {
	defer p.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handleInbound(conn)
		}()
	}
}

// handleInbound performs the accept-side handshake: the dialer announces
// itself with a hello frame carrying its generation; a stale generation is
// fenced (zombie dialer), an admitted one gets our hello back and the
// connection joins the peer set.
func (p *peerSet) handleInbound(conn transport.Conn) {
	env, err := conn.Recv()
	if err != nil || env.Kind != msg.KindHello {
		conn.Close()
		return
	}
	peer, ok := env.Payload.(string)
	if !ok || !p.neededPeer(peer) {
		conn.Close()
		return
	}
	if !p.admit(peer, env.Seq) {
		conn.Close()
		return
	}
	if err := conn.Send(p.hello()); err != nil {
		conn.Close()
		return
	}
	conn = p.register(peer, conn)
	p.readLoop(peer, conn)
}

// dialLoop redials peer until the engine stops, pacing attempts with
// capped exponential backoff (jittered, so a fleet restarting together
// does not thunder) and a per-peer circuit breaker that suppresses dials
// entirely while the peer looks long-dead — then half-opens forever after,
// so a cold-restarting peer is always rediscovered.
func (p *peerSet) dialLoop(peer string) {
	defer p.wg.Done()
	base := p.e.cfg.RedialEvery
	bo := &transport.Backoff{Base: base, Max: 16 * base}
	reg := p.e.metrics.Registry()
	redials := reg.Counter(trace.MetricRedials,
		"Dial attempts to a peer engine (first dials and redials).",
		trace.L("peer", peer))
	breakerState := reg.Gauge(trace.MetricDialBreaker,
		"Per-peer dial circuit breaker position (0 closed, 1 open, 2 half-open).",
		trace.L("peer", peer))
	br := &transport.Breaker{
		Threshold: 5,
		Cooldown:  8 * base,
		OnChange:  func(s transport.BreakerState) { breakerState.Set(int64(s)) },
	}
	for {
		if p.isStopped() {
			return
		}
		if !br.Allow() {
			// Open breaker: no dial attempt; poll for the cooldown at the
			// base cadence.
			select {
			case <-p.e.stop:
				return
			case <-time.After(base):
			}
			continue
		}
		redials.Inc()
		conn := p.tryDial(peer)
		if conn == nil {
			br.Failure()
			select {
			case <-p.e.stop:
				return
			case <-time.After(bo.Next()):
			}
			continue
		}
		br.Success()
		bo.Reset()
		conn = p.register(peer, conn)
		p.readLoop(peer, conn)
		// Connection died; loop to redial.
	}
}

func (p *peerSet) tryDial(peer string) transport.Conn {
	addr, ok := p.e.cfg.Addrs[peer]
	if !ok {
		return nil
	}
	conn, err := p.e.cfg.Transport.Dial(addr)
	if err != nil {
		return nil
	}
	if err := conn.Send(p.hello()); err != nil {
		conn.Close()
		return nil
	}
	reply, err := conn.Recv()
	if err != nil || reply.Kind != msg.KindHello {
		conn.Close()
		return nil
	}
	// Fence a stale acceptor: a zombie that answers the handshake with an
	// old generation must not be treated as the live peer.
	if !p.admit(peer, reply.Seq) {
		conn.Close()
		return nil
	}
	return conn
}

// register wraps a (re)established connection with frame metering,
// installs it, and re-drives the recovery protocol: resend every unacked
// buffered envelope headed to that peer, and re-request replay for every
// remote input wire fed from it. It returns the wrapped connection, which
// callers must use from then on (readLoop, dropConn).
func (p *peerSet) register(peer string, conn transport.Conn) transport.Conn {
	conn = p.e.observePeer(peer, conn)
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		conn.Close()
		return conn
	}
	if old, ok := p.connTable()[peer]; ok && old != conn {
		old.Close()
	}
	p.setConnLocked(peer, conn)
	p.mu.Unlock()
	p.e.rec.Record(trace.Event{Kind: trace.EvPeerUp, VT: vt.Never, Wire: -1, Note: "peer " + peer})
	p.e.onPeerConnected(peer)
	return conn
}

// observePeer wraps a peer connection so every frame increments the
// per-peer, per-direction frame counters.
func (e *Engine) observePeer(peer string, conn transport.Conn) transport.Conn {
	reg := e.metrics.Registry()
	if reg == nil {
		return conn
	}
	const help = "Envelope frames exchanged with a peer engine (heartbeats included)."
	sent := reg.Counter(trace.MetricPeerFrames, help, trace.L("peer", peer), trace.L("direction", "send"))
	recv := reg.Counter(trace.MetricPeerFrames, help, trace.L("peer", peer), trace.L("direction", "recv"))
	return transport.Observe(conn,
		func(msg.Envelope) { sent.Inc() },
		func(msg.Envelope) { recv.Inc() },
	)
}

func (p *peerSet) readLoop(peer string, conn transport.Conn) {
	heard := p.needed[peer]
	for {
		env, err := conn.Recv()
		if err != nil {
			p.dropConn(peer, conn)
			return
		}
		heard.Store(int64(time.Since(p.born)))
		if env.Kind == msg.KindHello {
			continue
		}
		p.e.deliverInbound(env)
	}
}

func (p *peerSet) dropConn(peer string, conn transport.Conn) {
	conn.Close()
	p.mu.Lock()
	active := p.connTable()[peer] == conn
	if active {
		p.setConnLocked(peer, nil)
	}
	p.mu.Unlock()
	if active {
		p.e.rec.Record(trace.Event{Kind: trace.EvPeerDown, VT: vt.Never, Wire: -1, Note: "peer " + peer})
	}
}

func (p *peerSet) neededPeer(name string) bool {
	return p.needed[name] != nil
}

func (p *peerSet) isStopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopped
}

// health summarizes per-peer connectivity.
func (p *peerSet) health() map[string]PeerHealth {
	conns := p.connTable()
	out := make(map[string]PeerHealth, len(p.needed))
	for peer, heard := range p.needed {
		ph := PeerHealth{Connected: conns[peer] != nil}
		if since := heard.Load(); since != 0 {
			ph.LastHeard = p.born.Add(time.Duration(since))
		}
		out[peer] = ph
	}
	return out
}

// onPeerConnected re-drives the recovery protocol after a (re)connect.
func (e *Engine) onPeerConnected(peer string) {
	// Resend unacked buffered envelopes whose receiver lives on the peer:
	// anything the peer missed while the link was down (or that a restored
	// peer needs again) — duplicates are discarded by sequence number.
	for _, env := range e.buffers.unacked() {
		w := e.tp.Wire(env.Wire)
		if w.To != topo.External && e.tp.EngineOf(w.To) == peer {
			e.peers.send(peer, env)
		}
	}
	// Ask the peer to replay every remote input wire it feeds, from our
	// current delivery cursor (a fresh engine needs nothing; a restored one
	// gets the suffix its checkpoint missed).
	for _, h := range e.sortedHosted() {
		needs := h.sch.ReplayNeeds()
		wires := make([]msg.WireID, 0, len(needs))
		for wid := range needs {
			wires = append(wires, wid)
		}
		sort.Slice(wires, func(i, j int) bool { return wires[i] < wires[j] })
		for _, wid := range wires {
			w := e.tp.Wire(wid)
			if w.From == topo.External || e.tp.EngineOf(w.From) != peer {
				continue
			}
			e.noteReplayRequest(wid, needs[wid])
			e.peers.send(peer, msg.NewReplayRequest(wid, needs[wid]))
		}
	}
}
