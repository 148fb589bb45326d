// Package sched implements TART's deterministic per-component scheduler —
// the paper's core mechanism (§II.D–§II.E).
//
// Each component owns one logical queue merging all of its input wires.
// The scheduler delivers messages pessimistically in strict virtual-time
// order: the earliest queued message is handed to the handler only when
// every other input wire is known to be silent through that message's
// virtual time (via an explicit silence promise or an already-queued later
// message). Ties are broken deterministically by wire ID. The wait for that
// knowledge is the pessimism delay, which the scheduler meters and — under
// probing strategies — shortens by sending curiosity probes to the lagging
// senders.
//
// The component clock advances deterministically: a message with virtual
// time t dequeues at d = max(t, clock); the handler is charged its
// estimator cost c; outputs are stamped d + c + wireDelay; and the clock
// becomes d + c (or later, if the handler performed two-way calls). Given
// identical inputs, a component therefore produces bit-identical outputs
// with identical virtual times on every engine, replica, and replay.
package sched

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/vt"
)

// Router delivers envelopes produced by a component onto their wires, one
// at a time. Route must not block indefinitely and must be safe for
// concurrent use. A scheduler configured with only a Router hands it each
// envelope of a routed batch in order (see Config.RouteBatch).
type Router interface {
	Route(env msg.Envelope)
}

// Handler is the application logic of a component. OnMessage processes one
// input message; for call-request messages the returned reply value is sent
// back to the caller. Handlers must be deterministic functions of
// (component state, port, payload, ctx.Now(), ctx.Rand()) and must not
// block except through ctx.Call.
type Handler interface {
	OnMessage(ctx *Ctx, port string, payload any) (reply any, err error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx *Ctx, port string, payload any) (any, error)

// OnMessage implements Handler.
func (f HandlerFunc) OnMessage(ctx *Ctx, port string, payload any) (any, error) {
	return f(ctx, port, payload)
}

// Calibration hooks estimator recalibration into the scheduler. After each
// handled message the scheduler observes (features, measured cost); if the
// calibrator proposes a coefficient change, the scheduler stamps it with a
// safely-future virtual time and hands it to Commit, which must log the
// determinism fault durably and apply it to the estimator (§II.G.4). Commit
// may move the fault's EffectiveVT later, never earlier.
type Calibration struct {
	Extract estimator.FeatureFunc
	Observe func(f estimator.Features, measured vt.Ticks) *estimator.Fault
	Commit  func(fault *estimator.Fault) error
}

// Config assembles a component scheduler.
type Config struct {
	Comp    *topo.Component
	Topo    *topo.Topology
	Handler Handler
	// Est stamps virtual times; required.
	Est estimator.Estimator
	// Silence configures the component's silence-propagation governor.
	Silence silence.Config
	// RouteBatch is the component's egress (the engine's Route): the worker
	// routes a step's outputs as one batch, in emission order, when the
	// step yields. It must not retain envs or block indefinitely, and must
	// be safe for concurrent use. Nil routes each envelope through Router.
	RouteBatch func(envs []msg.Envelope)
	Router     Router
	// Metrics receives the scheduler's flight events, spans and sampled
	// distributions; optional (nil is off). Counts are kept either way.
	Metrics Observer
	// Audit is the determinism audit log delivery chains are recorded in and
	// verified against; optional (nil skips the chain, see OnDelivered).
	Audit *AuditLog
	// Seed seeds the component's deterministic PRNG.
	Seed uint64
	// ProbeRetry is how often the scheduler forgets its outstanding
	// curiosity probes, so that a probe lost in flight (a link not yet up, a
	// crashed peer) is re-issued. It is only a backstop: an answered probe
	// frees its wire at once. Default 50ms.
	ProbeRetry time.Duration
	// Calibration enables estimator recalibration; optional.
	Calibration *Calibration
	// OnDuplicateCall is invoked when an already-processed call request is
	// received again (a recovering caller re-issuing a call); the engine
	// uses it to re-send the buffered reply. Optional.
	OnDuplicateCall func(req msg.Envelope)
	// OnDelivered, when set, is invoked synchronously after every handled
	// message, outside the scheduler lock and before this component's next
	// delivery can start (the worker parks until it returns, so the handler
	// state is stable while the callback runs). The delivery's audit chain
	// and payload digest are computed even when no audit log is attached.
	// Like Calibration, the hook forces one delivery per step; hot paths
	// without it are unchanged. The callback must not call this scheduler's
	// Deliver. The time-travel inspector uses it to observe replayed state
	// transitions delivery by delivery.
	OnDelivered func(d Delivery)
	// HoldbackLimit caps the per-wire hold-back area for out-of-gap
	// arrivals. 0 means DefaultHoldbackLimit; negative means unbounded.
	HoldbackLimit int
}

// ErrStopped is returned by blocking operations when the scheduler stops.
var ErrStopped = errors.New("sched: scheduler stopped")

// Delivery describes one handled message, as reported to
// Config.OnDelivered. ClockAfter is the component clock immediately after
// the handler (its deterministic post-state VT); Index and Chain are the
// delivery's position and rolling FNV value in the determinism audit chain
// (§II.G.4), computed whether or not an audit log is attached.
type Delivery struct {
	Component  string       `json:"component"`
	Wire       msg.WireID   `json:"wire"`
	Seq        uint64       `json:"seq"`
	VT         vt.Time      `json:"vt"`
	Dequeue    vt.Time      `json:"dequeueVT"`
	ClockAfter vt.Time      `json:"clockAfterVT"`
	Origin     msg.OriginID `json:"origin"`
	Hops       uint32       `json:"hops,omitempty"`
	Index      uint64       `json:"auditIndex"`
	Chain      uint64       `json:"auditChain"`
	Digest     uint64       `json:"payloadDigest"`
}

// Scheduler runs one component deterministically. Create with New, start
// with Run, stop with Stop.
type Scheduler struct {
	cfg  Config
	comp *topo.Component

	mu               sync.Mutex
	clock            vt.Time
	inFlight         vt.Time // dequeue VT of the message being handled; Never if idle
	inputs           map[msg.WireID]*inWire
	front            frontier // merge index over inputs (see merge.go)
	holdbackLimit    int
	quiet            *sync.Cond   // signalled when inFlight returns to Never or staged outputs are routed
	quietWaiters     atomic.Int32 // WithQuiescent callers waiting; read by the worker after a flush
	byPort           map[string]*outWire
	outputs          map[msg.WireID]*outWire
	silenceWires     []msg.WireID      // Comp.Outputs' wires (never reply wires), ascending; fixed at New
	promises         []silence.Promise // scratch the governor appends into
	ctx              Ctx               // the one handler context, reset per delivery
	gov              *silence.Governor
	rng              *stats.RNG
	waiters          map[uint64]chan msg.Envelope
	nextCall         uint64
	arrival          uint64 // arrival counter for out-of-RT-order accounting
	maxDlvd          uint64 // max arrival index among delivered messages
	pessStart        time.Time
	pessBlame        msg.WireID // last holdout observed during the current pessimism episode; -1 if none
	finalSilenceSent bool
	// pendingSilence holds logged silence-strategy faults waiting for their
	// VT-quantized effective boundaries, sorted by boundary. Each applies
	// when the component clock first reaches its epoch start, so replica and
	// replay re-derive the identical switch point from the fault log.
	pendingSilence []silenceEpoch

	// Determinism audit chain (paper §II.G.4): a rolling hash over the
	// delivered (wire, seq, VT, payload-digest) sequence. auditCount is the
	// number of deliveries folded in so far; both travel in checkpoints.
	// Updates and verification are skipped entirely when audit is nil.
	auditChain uint64
	auditCount uint64
	audit      *AuditLog

	obs Observer // Config.Metrics

	// out stages one step's outputs for flush; only the worker touches it.
	// unrouted is set while it is outside the lock with outputs staged.
	// answer is the one-element batch a probe's answer is routed in.
	out      []msg.Envelope
	unrouted atomic.Bool
	answerMu sync.Mutex
	answer   [1]msg.Envelope

	// Counts a reader pulls (Counts) beside the per-wire ones: duplicate
	// call replies by reply wire, and the determinism faults raised here.
	replyDups                   map[msg.WireID]uint64
	divergences, recalibrations uint64

	poke    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	started bool
	stopped bool
}

// New builds a scheduler for one component.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Comp == nil || cfg.Topo == nil {
		return nil, errors.New("sched: Comp and Topo are required")
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("sched: component %q has no handler", cfg.Comp.Name)
	}
	if cfg.Est == nil {
		return nil, fmt.Errorf("sched: component %q has no estimator", cfg.Comp.Name)
	}
	if cfg.RouteBatch == nil && cfg.Router == nil {
		return nil, errors.New("sched: RouteBatch or Router is required")
	}
	if cfg.RouteBatch == nil {
		r := cfg.Router
		cfg.RouteBatch = func(envs []msg.Envelope) {
			for _, env := range envs {
				r.Route(env)
			}
		}
	}
	if cfg.ProbeRetry <= 0 {
		cfg.ProbeRetry = 50 * time.Millisecond
	}
	s := &Scheduler{
		cfg:        cfg,
		comp:       cfg.Comp,
		inFlight:   vt.Never,
		pessBlame:  -1,
		audit:      cfg.Audit,
		obs:        cfg.Metrics,
		auditChain: ChainSeed(),
		inputs:     make(map[msg.WireID]*inWire, len(cfg.Comp.Inputs)),
		byPort:     make(map[string]*outWire, len(cfg.Comp.Outputs)),
		outputs:    make(map[msg.WireID]*outWire, len(cfg.Comp.Outputs)),
		gov:        silence.NewGovernor(cfg.Silence),
		rng:        stats.NewRNG(cfg.Seed),
		waiters:    make(map[uint64]chan msg.Envelope),
		poke:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	s.quiet = sync.NewCond(&s.mu)
	switch {
	case cfg.HoldbackLimit > 0:
		s.holdbackLimit = cfg.HoldbackLimit
	case cfg.HoldbackLimit == 0:
		s.holdbackLimit = DefaultHoldbackLimit
	default:
		s.holdbackLimit = 0 // unbounded
	}
	for _, wid := range cfg.Comp.Inputs {
		in := newInWire(cfg.Topo.Wire(wid))
		in.obs = s.register(in.w, true)
		s.inputs[wid] = in
		s.front.add(in)
	}
	for port, wid := range cfg.Comp.Outputs {
		w := cfg.Topo.Wire(wid)
		ow := newOutWire(w, s.register(w, false))
		s.byPort[port] = ow
		s.outputs[wid] = ow
		s.silenceWires = append(s.silenceWires, wid)
	}
	slices.Sort(s.silenceWires)
	if s.obs != nil {
		s.gov.SetTrace(func(event string, w msg.WireID, target vt.Time) {
			s.obs.Curiosity(s.outputs[w].obs, target, event == silence.TraceCuriositySatisfied)
		})
	}
	return s, nil
}

// Run starts the scheduler's worker goroutine. It returns an error if the
// scheduler was already started.
func (s *Scheduler) Run() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("sched: component %q already running", s.comp.Name)
	}
	s.started = true
	go s.loop()
	return nil
}

// Stop signals the worker to exit and waits for it. It is idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.started {
		s.started = true // prevent a future Run from starting a loop
		s.stopped = true
		s.mu.Unlock()
		close(s.stop)
		close(s.done)
		return
	}
	if s.stopped {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
}

// Clock returns the component's current virtual clock.
func (s *Scheduler) Clock() vt.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// silenceEpoch is one logged silence-strategy fault waiting for its
// VT-quantized effective boundary.
type silenceEpoch struct {
	cfg silence.Config
	at  vt.Time
}

// ApplySilenceEpoch installs a silence configuration on behalf of a logged
// determinism fault (§II.G.4). The configuration takes effect when the
// component clock first reaches at; boundaries the clock has already passed
// apply immediately (a manual switch, or the restore path re-deriving past
// decisions). Callers must have appended the corresponding fault record to
// the synchronous log first.
func (s *Scheduler) ApplySilenceEpoch(cfg silence.Config, at vt.Time) {
	s.mu.Lock()
	if s.clock >= at {
		s.gov.ApplyFault(cfg)
	} else {
		s.pendingSilence = append(s.pendingSilence, silenceEpoch{cfg: cfg, at: at})
		sort.SliceStable(s.pendingSilence, func(i, j int) bool {
			return s.pendingSilence[i].at < s.pendingSilence[j].at
		})
	}
	s.mu.Unlock()
	s.wake()
}

// applyDueSilenceLocked applies pending silence epochs whose effective
// boundary the component clock has reached.
func (s *Scheduler) applyDueSilenceLocked() {
	for len(s.pendingSilence) > 0 && s.clock >= s.pendingSilence[0].at {
		s.gov.ApplyFault(s.pendingSilence[0].cfg)
		s.pendingSilence = s.pendingSilence[1:]
	}
}

// SilenceConfig returns the governor's current effective configuration.
func (s *Scheduler) SilenceConfig() silence.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gov.Config()
}

// Deliver hands an incoming envelope to the scheduler. Data and
// call-request envelopes join the logical queue; silence promises advance
// watermarks; probes (for wires this component sends on) are answered via
// the governor; call replies wake blocked callers. Deliver never blocks on
// the handler and is safe for concurrent use.
func (s *Scheduler) Deliver(env msg.Envelope) {
	switch env.Kind {
	case msg.KindData, msg.KindCallRequest:
		s.DeliverRun([]msg.Envelope{env})
	case msg.KindSilence:
		s.deliverSilence(env)
	case msg.KindProbe:
		s.deliverProbe(env)
	case msg.KindCallReply:
		s.deliverReply(env)
	default:
		// Replay requests and acks are handled by the engine layer, never
		// routed to a scheduler; ignore defensively.
	}
}

// DeliverRun hands a run of data and call-request envelopes to the logical
// queue under one lock and one wake, reading the wall clock at most once
// (for span-sampled origins): the batch form of Deliver.
func (s *Scheduler) DeliverRun(envs []msg.Envelope) {
	var now int64
	queued := false
	s.mu.Lock()
	for i := range envs {
		env := &envs[i]
		in, ok := s.inputs[env.Wire]
		if !ok {
			continue // not one of our input wires; drop
		}
		// A non-zero enqueue stamp marks a span-sampled delivery.
		var enq int64
		if s.obs != nil && s.obs.Traced(env.Trace, env.Origin) {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			enq = now
		}
		s.arrival++
		verdict := in.accept(*env, s.arrival, enq, s.holdbackLimit)
		switch verdict {
		case acceptQueued:
			s.front.update(in)
			queued = true
			continue
		case acceptDuplicate:
			in.counts.Duplicates++
		case acceptOverflow:
			in.counts.HoldbackDrops++
		}
		// An overflow is shed, not lost: the gap-repair loop will re-request
		// everything from the delivery cursor once the gap persists.
		s.mu.Unlock()
		if s.obs != nil {
			s.obs.Dropped(in.obs, *env, verdict == acceptOverflow)
		}
		if verdict == acceptDuplicate && env.Kind == msg.KindCallRequest && s.cfg.OnDuplicateCall != nil {
			// A recovering caller re-issued a call this component already
			// processed; let the engine re-send the buffered reply.
			s.cfg.OnDuplicateCall(*env)
		}
		s.mu.Lock()
	}
	s.mu.Unlock()
	if queued {
		s.wake()
	}
}

func (s *Scheduler) deliverSilence(env msg.Envelope) {
	s.mu.Lock()
	in, ok := s.inputs[env.Wire]
	if ok {
		if env.Seq >= in.nextSeq {
			// The promise attests to a data prefix this receiver has not
			// contiguously received: it overtook messages still in flight
			// or lost to a crash/partition (silence promises are unsequenced
			// fire-and-forget, so they can outrun replayed data). Park it —
			// advancing the watermark now would commit the merge past data
			// that will still arrive. enqueue applies it when the gap fills;
			// gapFrom surfaces the attested range to the repair loop.
			if env.Seq > in.pendPromiseSeq {
				in.pendPromiseSeq = env.Seq
			}
			if env.Promise > in.pendPromise {
				in.pendPromise = env.Promise
			}
		} else if env.Promise > in.watermark {
			in.watermark = env.Promise
			s.front.update(in)
		}
	}
	s.mu.Unlock()
	if ok {
		s.wake()
	}
}

// deliverProbe answers a curiosity probe for one of this component's
// output wires. A target the component cannot cover yet stands in the
// governor, and the worker, woken here, forwards it up the input wires that
// hold the clock back (forwardLocked).
func (s *Scheduler) deliverProbe(env msg.Envelope) {
	s.mu.Lock()
	ow, ok := s.outputs[env.Wire]
	if !ok {
		s.mu.Unlock()
		return
	}
	// Fold in any silence knowledge that arrived since the worker last ran,
	// so the probe is answered with the freshest promise.
	s.advanceFrontierLocked()
	p := s.gov.OnProbe(env.Wire, env.Promise, s.viewLocked(ow))
	// A promise that covers the target is always sent (an earlier answer
	// may have been lost). One that falls short cannot unblock the prober,
	// and a probing governor answers the standing target as soon as the
	// clock covers it, so only a Lazy governor, which never answers later,
	// sends it now.
	answer := p.Through >= env.Promise || !s.gov.Strategy().Probes()
	sentSeq := ow.seq
	if answer {
		s.noteSilence(ow, p.Through)
	}
	s.mu.Unlock()
	if answer {
		s.answerMu.Lock()
		s.answer[0] = msg.NewSilenceAfter(p.Wire, p.Through, sentSeq)
		s.cfg.RouteBatch(s.answer[:])
		s.answerMu.Unlock()
	}
	s.wake()
}

func (s *Scheduler) deliverReply(env msg.Envelope) {
	s.mu.Lock()
	ch, ok := s.waiters[env.CallID]
	if ok {
		delete(s.waiters, env.CallID)
	} else {
		if s.replyDups == nil {
			s.replyDups = make(map[msg.WireID]uint64)
		}
		s.replyDups[env.Wire]++
	}
	s.mu.Unlock()
	if !ok {
		// No waiter: a duplicate reply after replay. Discard.
		if s.obs != nil {
			s.obs.DroppedReply(s.comp.Name, env)
		}
		return
	}
	ch <- env
}

// viewLocked builds the silence view for an output wire. The promise is
// based on how far this component has deterministically committed: its
// clock, or the dequeue time of the in-flight message if busy (outputs of
// the in-flight handler are stamped no earlier than inFlight + minCost).
func (s *Scheduler) viewLocked(ow *outWire) silence.View {
	base := s.clock
	if s.inFlight != vt.Never && s.inFlight > base {
		base = s.inFlight
	}
	return silence.View{
		Clock:      base,
		MinCost:    s.cfg.Est.MinCost(base),
		WireDelay:  ow.w.Delay,
		LastSentVT: ow.lastSentVT,
	}
}

// wake nudges the worker loop without blocking.
func (s *Scheduler) wake() {
	select {
	case s.poke <- struct{}{}:
	default:
	}
}
