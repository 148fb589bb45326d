package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/vt"
)

// peerSet manages the engine's connections to the other engines it shares
// wires with: listening, dialing (the lexicographically smaller engine name
// dials), handshaking, reconnecting after failures, and re-driving the
// recovery protocol on every (re)connect.
type peerSet struct {
	e *Engine

	// needed maps each peer this engine shares wires with (fixed at
	// construction) to what the set keeps about it, its live connection
	// included; the engine's route table points at the same records.
	needed map[string]*peer
	born   time.Time

	mu       sync.Mutex
	gens     map[string]uint64 // highest handshake generation seen per peer
	listener transport.Listener
	stopped  bool
	wg       sync.WaitGroup

	// Peer-bound silence promises, coalesced by the writer's own pace: a
	// promise that finds no flush in progress is sent at once by its
	// caller, and promises arriving during a flush wait in silPending, the
	// newest per wire (promises are monotone, so the newest subsumes the
	// rest), for the flusher's next pass. silCoalesced counts promises
	// absorbed by a newer one; silOut and silEnvs are the flusher's scratch.
	silMu        sync.Mutex
	silFlushing  bool
	silPending   map[msg.WireID]pendingSilence
	silOut       []pendingSilence
	silEnvs      []msg.Envelope
	silCoalesced int
}

// peer is what the peer set keeps about one peer engine: its live
// connection (nil while down), when a frame was last received from it, as
// nanoseconds since born (0: never), the frames sent to and received from
// it over every connection, and the dial loop's circuit breaker if this
// engine is the dialer. The frame path pays atomic loads, stores and adds;
// readers load them on demand (health).
type peer struct {
	name       string
	conn       atomic.Pointer[transport.Conn]
	heard      atomic.Int64
	sent, recv atomic.Uint64
	breaker    *transport.Breaker // nil when the peer dials us
}

// live returns the peer's connection, or nil while it is down.
func (pe *peer) live() transport.Conn {
	if c := pe.conn.Load(); c != nil {
		return *c
	}
	return nil
}

// pendingSilence is one coalesced peer-bound promise: the watermark plus the
// sender's data-prefix attestation (both monotone per wire, so coalescing
// keeps the max of each), and the peer it goes to.
type pendingSilence struct {
	peer    *peer
	wire    msg.WireID
	promise vt.Time
	seq     uint64
}

func newPeerSet(e *Engine) *peerSet {
	gens := make(map[string]uint64, len(e.cfg.PeerGens))
	for peer, g := range e.cfg.PeerGens {
		gens[peer] = g
	}
	needed := make(map[string]*peer)
	for _, w := range e.tp.Wires() {
		if w.From == topo.External || w.To == topo.External {
			continue
		}
		fromEng, toEng := e.tp.EngineOf(w.From), e.tp.EngineOf(w.To)
		if fromEng != e.name && toEng != e.name {
			continue
		}
		for _, name := range [2]string{fromEng, toEng} {
			if name != e.name && needed[name] == nil {
				needed[name] = &peer{name: name}
				if e.name < name { // the smaller name dials
					needed[name].breaker = &transport.Breaker{Threshold: 5, Cooldown: 8 * e.cfg.RedialEvery}
				}
			}
		}
	}
	return &peerSet{
		e:          e,
		needed:     needed,
		born:       time.Now(),
		gens:       gens,
		silPending: make(map[msg.WireID]pendingSilence),
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
		if p.e.obs != nil {
			p.e.obs.Fenced(peer, gen)
		}
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

	for _, pe := range p.needed {
		if pe.breaker != nil {
			p.wg.Add(1)
			go p.dialLoop(pe)
		}
	}
	return nil
}

func (p *peerSet) stop() {
	p.mu.Lock()
	p.stopped = true
	if p.listener != nil {
		p.listener.Close()
	}
	var conns []transport.Conn
	for _, pe := range p.needed {
		if c := pe.conn.Swap(nil); c != nil {
			conns = append(conns, *c)
		}
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

// send transmits envelopes to a peer engine in one transport call,
// dropping them if the link is down (replay buffers and retry loops
// provide recovery).
func (p *peerSet) send(pe *peer, envs []msg.Envelope) {
	c := pe.live()
	if c == nil {
		return
	}
	if err := c.SendBatch(envs); err != nil {
		p.dropConn(pe, c)
		return
	}
	pe.sent.Add(uint64(len(envs)))
}

// sendSilence transmits a silence promise to a peer. With no flush in
// progress the caller flushes at once; otherwise the promise joins the
// table, merged with any older promise for its wire, and the flush in
// progress sends it on its next pass. Lossless, because a newer promise on
// the same wire strictly subsumes an older one.
func (p *peerSet) sendSilence(pe *peer, env msg.Envelope) {
	next := pendingSilence{peer: pe, wire: env.Wire, promise: env.Promise, seq: env.Seq}
	p.silMu.Lock()
	if old, ok := p.silPending[env.Wire]; ok {
		p.silCoalesced++
		next.promise = max(next.promise, old.promise)
		next.seq = max(next.seq, old.seq)
	}
	p.silPending[env.Wire] = next
	if p.silFlushing {
		p.silMu.Unlock()
		return
	}
	p.silFlushing = true
	for len(p.silPending) > 0 {
		out := p.takeSilenceLocked()
		coalesced := p.silCoalesced
		p.silCoalesced = 0
		p.silMu.Unlock()
		if coalesced > 0 && p.e.obs != nil {
			p.e.obs.SilencesCoalesced(coalesced)
		}
		envs := p.silEnvs[:0]
		for _, ps := range out {
			envs = append(envs, msg.NewSilenceAfter(ps.wire, ps.promise, ps.seq))
		}
		p.silEnvs = envs
		for i := 0; i < len(out); {
			n := 1 // a run of promises for one peer leaves in one send
			for i+n < len(out) && out[i+n].peer == out[i].peer {
				n++
			}
			p.send(out[i].peer, envs[i:i+n])
			i += n
		}
		p.silMu.Lock()
	}
	p.silFlushing = false
	p.silMu.Unlock()
}

// takeSilenceLocked empties the promise table into the flusher's scratch.
// The caller holds silMu and is the flusher.
func (p *peerSet) takeSilenceLocked() []pendingSilence {
	out := p.silOut[:0]
	for _, ps := range p.silPending {
		out = append(out, ps)
	}
	clear(p.silPending)
	p.silOut = out
	return out
}

// heartbeat sends a hello on every live connection.
func (p *peerSet) heartbeat() {
	for _, pe := range p.needed {
		c := pe.live()
		if c == nil {
			continue
		}
		if err := c.Send(p.hello()); err != nil {
			p.dropConn(pe, c)
			continue
		}
		pe.sent.Add(1)
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
	inTime := boundHandshake(conn)
	env, err := conn.Recv()
	if !inTime() || err != nil || env.Kind != msg.KindHello {
		conn.Close()
		return
	}
	name, ok := env.Payload.(string)
	pe := p.needed[name]
	if !ok || pe == nil {
		conn.Close()
		return
	}
	if !p.admit(name, env.Seq) {
		conn.Close()
		return
	}
	if err := conn.Send(p.hello()); err != nil {
		conn.Close()
		return
	}
	p.register(name, conn)
	p.readLoop(pe, conn)
}

// dialLoop redials peer until the engine stops, pacing attempts with
// capped exponential backoff (jittered, so a fleet restarting together
// does not thunder) and a per-peer circuit breaker that suppresses dials
// entirely while the peer looks long-dead — then half-opens forever after,
// so a cold-restarting peer is always rediscovered.
func (p *peerSet) dialLoop(pe *peer) {
	defer p.wg.Done()
	br := pe.breaker
	base := p.e.cfg.RedialEvery
	bo := &transport.Backoff{Base: base, Max: 16 * base}
	redial := func() {}
	if obs := p.e.obs; obs != nil {
		redial = obs.Dialer(pe.name)
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
		redial()
		conn := p.tryDial(pe.name)
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
		p.register(pe.name, conn)
		p.readLoop(pe, conn)
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
	inTime := boundHandshake(conn)
	err = conn.Send(p.hello())
	var reply msg.Envelope
	if err == nil {
		reply, err = conn.Recv()
	}
	if !inTime() || err != nil || reply.Kind != msg.KindHello {
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

// boundHandshake closes conn unless the returned func is called within
// transport.DefaultDialTimeout, and that func reports whether it was. A
// counterpart that accepts the connection but never answers our hello, or
// dials in and never sends one, would otherwise park the handshake in Recv
// for good — and stop waits for every handshake.
func boundHandshake(conn transport.Conn) (inTime func() bool) {
	return time.AfterFunc(transport.DefaultDialTimeout, func() { conn.Close() }).Stop
}

// register installs a (re)established connection and re-drives the
// recovery protocol: resend every unacked buffered envelope headed to that
// peer, and re-request replay for every remote input wire fed from it.
func (p *peerSet) register(peer string, conn transport.Conn) {
	pe := p.needed[peer]
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		conn.Close()
		return
	}
	if p.e.obs != nil {
		p.e.obs.PeerUp(peer)
	}
	if old := pe.live(); old != nil && old != conn {
		old.Close()
	}
	pe.conn.Store(&conn)
	p.mu.Unlock()
	p.e.onPeerConnected(pe)
}

// readLoop delivers what conn receives, a batch at a time: one heard stamp
// and one frame count per batch, and each run of messages for one hosted
// scheduler under one lock (Engine.dispatch).
func (p *peerSet) readLoop(pe *peer, conn transport.Conn) {
	for {
		envs, err := conn.RecvBatch()
		if err != nil {
			p.dropConn(pe, conn)
			return
		}
		pe.heard.Store(int64(time.Since(p.born)))
		pe.recv.Add(uint64(len(envs)))
		p.e.dispatch(envs)
	}
}

func (p *peerSet) dropConn(pe *peer, conn transport.Conn) {
	conn.Close()
	p.mu.Lock()
	active := pe.live() == conn
	if active {
		pe.conn.Store(nil)
	}
	p.mu.Unlock()
	if active && p.e.obs != nil {
		p.e.obs.PeerDown(pe.name)
	}
}

func (p *peerSet) isStopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopped
}

// health summarizes per-peer connectivity.
func (p *peerSet) health() map[string]PeerHealth {
	out := make(map[string]PeerHealth, len(p.needed))
	for name, pe := range p.needed {
		ph := PeerHealth{Connected: pe.live() != nil, FramesSent: pe.sent.Load(), FramesReceived: pe.recv.Load()}
		if since := pe.heard.Load(); since != 0 {
			ph.LastHeard = p.born.Add(time.Duration(since))
		}
		if pe.breaker != nil {
			ph.Dials, ph.Breaker = true, pe.breaker.State()
		}
		out[name] = ph
	}
	return out
}

// onPeerConnected re-drives the recovery protocol after a (re)connect.
func (e *Engine) onPeerConnected(pe *peer) {
	// Resend unacked buffered envelopes whose receiver lives on the peer:
	// anything the peer missed while the link was down (or that a restored
	// peer needs again) — duplicates are discarded by sequence number.
	resend := e.buffers.unacked()
	kept := resend[:0]
	for _, env := range resend {
		if e.routes[env.Wire].toPeer == pe {
			kept = append(kept, env)
		}
	}
	if len(kept) > 0 {
		e.peers.send(pe, kept)
	}
	// Ask the peer to replay every remote input wire it feeds, from our
	// current delivery cursor (a fresh engine needs nothing; a restored one
	// gets the suffix its checkpoint missed).
	var reqs []msg.Envelope
	for _, h := range e.sortedHosted() {
		needs := h.sch.ReplayNeeds()
		wires := make([]msg.WireID, 0, len(needs))
		for wid := range needs {
			wires = append(wires, wid)
		}
		sort.Slice(wires, func(i, j int) bool { return wires[i] < wires[j] })
		for _, wid := range wires {
			if e.routes[wid].fromPeer != pe {
				continue
			}
			e.noteReplayRequest(wid, needs[wid])
			reqs = append(reqs, msg.NewReplayRequest(wid, needs[wid]))
		}
	}
	if len(reqs) > 0 {
		e.peers.send(pe, reqs)
	}
}
