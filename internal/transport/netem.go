package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/stats"
)

// Netem is a runtime-controllable network emulator layered over another
// Transport: per-link fault plans (drop/dup/reorder/delay, the paper's
// link-failure model) and hard partitions with heals. One Netem instance
// models the cluster's network; each engine gets a view of it via For.
//
// Faults are injected on the dialer side of every logical link — on Send
// for dialer→acceptor traffic and on Recv for acceptor→dialer traffic — so
// both directions are covered without coordinating wrappers on both ends.
// Control-plane hello frames (handshakes, heartbeats) pass through
// unfaulted: link chaos targets wire traffic, while partitions (Cut) sever
// the connection itself, heartbeats included.
type Netem struct {
	mu       sync.Mutex
	seed     uint64
	nextConn uint64
	engineOf map[string]string // transport address -> engine name
	plans    map[string]FaultPlan
	cuts     map[string]bool
	live     map[string][]*netemConn

	stats netemCounters
}

// FaultPlan is the fault schedule of one Netem link. Probabilities are in
// [0, 1] and evaluated per envelope.
type FaultPlan struct {
	// DropProb drops the envelope entirely.
	DropProb float64
	// DupProb delivers the envelope twice.
	DupProb float64
	// ReorderProb holds the envelope back and delivers it after the next
	// one (a one-slot reorder).
	ReorderProb float64
	// Delay, when positive, sleeps up to Delay (uniform) before delivery.
	Delay time.Duration
}

// NetemStats counts the emulator's interventions.
type NetemStats struct {
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Delayed    uint64
	// CutDials counts dial attempts refused because the link was cut.
	CutDials uint64
	// Severed counts live connections closed by Cut.
	Severed uint64
}

type netemCounters struct {
	dropped, duplicated, reordered, delayed atomic.Uint64
	cutDials, severed                       atomic.Uint64
}

// NewNetem returns an emulator with no faults and no cuts; seed drives the
// deterministic per-connection fault schedules.
func NewNetem(seed uint64) *Netem {
	return &Netem{
		seed:     seed,
		engineOf: make(map[string]string),
		plans:    make(map[string]FaultPlan),
		cuts:     make(map[string]bool),
		live:     make(map[string][]*netemConn),
	}
}

// SetAddrs registers the engine-name-to-address map, letting the emulator
// resolve dial targets back to engine names (and thus links).
func (n *Netem) SetAddrs(addrOf map[string]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for engine, addr := range addrOf {
		n.engineOf[addr] = engine
	}
}

// edgeKey canonicalizes an engine pair.
func edgeKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// SetLinkPlan installs the fault plan for the link between engines a and b
// (both directions). A zero plan clears faults.
func (n *Netem) SetLinkPlan(a, b string, plan FaultPlan) {
	n.mu.Lock()
	n.plans[edgeKey(a, b)] = plan
	n.mu.Unlock()
}

// Cut partitions engines a and b: live connections between them are
// severed and new dials fail until Heal.
func (n *Netem) Cut(a, b string) {
	key := edgeKey(a, b)
	n.mu.Lock()
	n.cuts[key] = true
	conns := n.live[key]
	n.live[key] = nil
	n.mu.Unlock()
	for _, c := range conns {
		n.stats.severed.Add(1)
		_ = c.Close()
	}
}

// Heal reopens the link between engines a and b; the engines' redial loops
// re-establish connections and re-drive the recovery protocol.
func (n *Netem) Heal(a, b string) {
	n.mu.Lock()
	delete(n.cuts, edgeKey(a, b))
	n.mu.Unlock()
}

// HealAll reopens every cut link.
func (n *Netem) HealAll() {
	n.mu.Lock()
	n.cuts = make(map[string]bool)
	n.mu.Unlock()
}

// Stats snapshots the emulator's intervention counters.
func (n *Netem) Stats() NetemStats {
	return NetemStats{
		Dropped:    n.stats.dropped.Load(),
		Duplicated: n.stats.duplicated.Load(),
		Reordered:  n.stats.reordered.Load(),
		Delayed:    n.stats.delayed.Load(),
		CutDials:   n.stats.cutDials.Load(),
		Severed:    n.stats.severed.Load(),
	}
}

// For returns the named engine's view of the network: a Transport that
// dials and listens through inner but subjects every dialed link to the
// emulator's plans and cuts.
func (n *Netem) For(local string, inner Transport) Transport {
	return &netemView{n: n, local: local, inner: inner}
}

type netemView struct {
	n     *Netem
	local string
	inner Transport
}

var _ Transport = (*netemView)(nil)

// Listen passes through: faults ride on the dialer side of each link.
func (v *netemView) Listen(addr string) (Listener, error) { return v.inner.Listen(addr) }

func (v *netemView) Dial(addr string) (Conn, error) {
	n := v.n
	n.mu.Lock()
	remote, known := n.engineOf[addr]
	if !known {
		n.mu.Unlock()
		return v.inner.Dial(addr)
	}
	key := edgeKey(v.local, remote)
	if n.cuts[key] {
		n.mu.Unlock()
		n.stats.cutDials.Add(1)
		return nil, fmt.Errorf("netem: link %s is cut: %w", key, ErrClosed)
	}
	n.nextConn++
	sendSeed := splitmix64(n.seed + 2*n.nextConn)
	recvSeed := splitmix64(n.seed + 2*n.nextConn + 1)
	n.mu.Unlock()

	inner, err := v.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &netemConn{
		n: n, key: key, inner: inner,
		sendLane: faultLane{rng: stats.NewRNG(sendSeed)},
		recvLane: faultLane{rng: stats.NewRNG(recvSeed)},
	}
	c.cursor.fill = c.fill

	n.mu.Lock()
	if n.cuts[key] {
		// Cut raced the dial: sever immediately.
		n.mu.Unlock()
		n.stats.cutDials.Add(1)
		_ = inner.Close()
		return nil, fmt.Errorf("netem: link %s is cut: %w", key, ErrClosed)
	}
	n.live[key] = append(n.live[key], c)
	n.mu.Unlock()
	return c, nil
}

// planFor fetches the current plan of a link (runtime-updatable).
func (n *Netem) planFor(key string) FaultPlan {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.plans[key]
}

// forget drops a closed connection from the live set.
func (n *Netem) forget(key string, c *netemConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	conns := n.live[key]
	for i, x := range conns {
		if x == c {
			n.live[key] = append(conns[:i], conns[i+1:]...)
			return
		}
	}
}

// faultLane holds the per-direction fault state of one connection: a
// deterministic RNG and the one-slot reorder buffer.
type faultLane struct {
	rng  *stats.RNG
	held *msg.Envelope
}

// decide rolls the fault schedule for one envelope, appending the
// envelopes to deliver now to dst (possibly none: dropped or held back) and
// returning a delay to apply before delivery. Hellos pass unrolled.
func (l *faultLane) decide(dst []msg.Envelope, env msg.Envelope, plan FaultPlan, st *netemCounters) ([]msg.Envelope, time.Duration) {
	if env.Kind == msg.KindHello {
		return append(dst, env), 0
	}
	roll := l.rng.Float64()
	dup := l.rng.Float64() < plan.DupProb
	reorder := l.rng.Float64() < plan.ReorderProb
	var delay time.Duration
	if plan.Delay > 0 {
		delay = time.Duration(l.rng.Float64() * float64(plan.Delay))
	}
	if roll < plan.DropProb {
		st.dropped.Add(1)
		return dst, 0
	}
	if reorder && l.held == nil {
		held := env
		l.held = &held
		st.reordered.Add(1)
		return dst, 0
	}
	dst = append(dst, env)
	if l.held != nil {
		dst = append(dst, *l.held)
		l.held = nil
	}
	if dup {
		dst = append(dst, env)
		st.duplicated.Add(1)
	}
	if delay > 0 {
		st.delayed.Add(1)
	}
	return dst, delay
}

// netemConn injects the link's fault plan into both directions of one
// dialed connection.
type netemConn struct {
	n     *Netem
	key   string
	inner Conn

	sendMu   sync.Mutex
	sendLane faultLane

	// The receive side belongs to the one receiving goroutine; the cursor
	// holds what the last fill let through.
	recvLane faultLane
	cursor

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

var _ Conn = (*netemConn)(nil)

func (c *netemConn) Send(env msg.Envelope) error {
	return c.SendBatch([]msg.Envelope{env})
}

// SendBatch rolls the fault schedule per envelope and passes what survives
// on in order; an envelope drawn a delay waits for it after everything
// before it has been passed on.
func (c *netemConn) SendBatch(envs []msg.Envelope) error {
	// A severed connection refuses traffic deterministically, whatever the
	// inner transport's own close semantics are.
	if c.closed.Load() {
		return fmt.Errorf("netem: connection severed: %w", ErrClosed)
	}
	plan := c.n.planFor(c.key)
	out := make([]msg.Envelope, 0, len(envs))
	for _, env := range envs {
		var delay time.Duration
		mark := len(out)
		c.sendMu.Lock()
		out, delay = c.sendLane.decide(out, env, plan, &c.n.stats)
		c.sendMu.Unlock()
		if delay > 0 {
			if err := c.inner.SendBatch(out[:mark]); err != nil {
				return err
			}
			out = append(out[:0], out[mark:]...)
			time.Sleep(delay)
		}
	}
	return c.inner.SendBatch(out)
}

// fill receives inner batches until the fault schedule lets at least one
// envelope through, rolling it per envelope.
func (c *netemConn) fill() error {
	clear(c.batch)
	c.batch, c.next = c.batch[:0], 0
	for len(c.batch) == 0 {
		if c.closed.Load() {
			return fmt.Errorf("netem: connection severed: %w", ErrClosed)
		}
		in, err := c.inner.RecvBatch()
		if err != nil {
			return err
		}
		plan := c.n.planFor(c.key)
		for _, env := range in {
			var delay time.Duration
			c.batch, delay = c.recvLane.decide(c.batch, env, plan, &c.n.stats)
			if delay > 0 {
				time.Sleep(delay)
			}
		}
	}
	return nil
}

func (c *netemConn) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		// A graceful close drains the send lane's held envelope: a close
		// models the link going away, and only the fault schedule may lose
		// frames.
		c.sendMu.Lock()
		held := c.sendLane.held
		c.sendLane.held = nil
		c.sendMu.Unlock()
		if held != nil {
			_ = c.inner.Send(*held)
		}
		c.n.forget(c.key, c)
		c.closeErr = c.inner.Close()
	})
	return c.closeErr
}

// splitmix64 scrambles a seed so per-connection RNG streams are decorrelated.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
