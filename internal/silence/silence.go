// Package silence implements TART's silence-propagation strategies
// (paper §II.G.3, §II.H).
//
// A tick on a wire either carries a message or is silent. Receivers must
// learn about silent ticks to commit to the earliest pending message
// without rollback; how eagerly senders communicate silence is the main
// runtime tuning knob:
//
//   - Lazy: silence is implied only by the next data message (each data
//     message at VT t implies the ticks since the previous one were silent).
//   - Curiosity: a receiver stuck in a pessimism delay sends the lagging
//     senders a probe; the sender answers with its best promise and keeps
//     answering as its promise extends until the requested target is reached
//     (a "standing" curiosity).
//   - Aggressive: senders push promises unprompted whenever their promise
//     has advanced by a configured stride.
//   - HyperAggressive: the "bias algorithm" — a sender eagerly promises
//     silence a fixed bias *beyond* what it currently knows, constraining its
//     own future outputs to later virtual times. Because this changes output
//     VTs it is part of the estimator (deterministic) rather than mere
//     communication, so a component runs it from launch or not at all.
//
// The package is deliberately runtime-agnostic: the scheduler feeds it
// events (probes received, clock advances) and it answers with the promises
// to emit. That keeps the strategy logic unit-testable without threads.
package silence

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/msg"
	"repro/internal/vt"
)

// Strategy selects a silence-propagation discipline.
type Strategy int8

// Strategies, in increasing eagerness.
const (
	Lazy Strategy = iota + 1
	Curiosity
	Aggressive
	HyperAggressive
)

// bias is the extra silence a HyperAggressive sender promises beyond its
// knowledge, which also floors its future output VTs: 2 ms, the value the
// live bias study measured (EXPERIMENTS *Bias algorithm*).
const bias vt.Ticks = 2_000_000

// String renders the strategy name.
func (s Strategy) String() string {
	switch s {
	case Lazy:
		return "lazy"
	case Curiosity:
		return "curiosity"
	case Aggressive:
		return "aggressive"
	case HyperAggressive:
		return "hyper-aggressive"
	default:
		return fmt.Sprintf("strategy(%d)", int8(s))
	}
}

// Probes reports whether receivers using this strategy send curiosity
// probes when they detect a pessimism delay.
func (s Strategy) Probes() bool {
	return s == Curiosity || s == Aggressive || s == HyperAggressive
}

// View is what the sender side knows about one of its output wires when
// computing a silence promise.
type View struct {
	// Clock is the component's virtual clock (it has fully processed
	// everything up to this virtual time).
	Clock vt.Time
	// MinCost is the component estimator's lower bound on processing cost.
	MinCost vt.Ticks
	// WireDelay is the wire's deterministic communication-delay estimate.
	WireDelay vt.Ticks
	// LastSentVT is the VT of the last data message sent on the wire
	// (vt.Never if none). Promises never regress below it.
	LastSentVT vt.Time
}

// Promise computes the silence promise an idle component can make on a
// wire: it is silent through (clock + shortest possible processing +
// transmission − 1), i.e. one tick earlier than the earliest message it
// could deliver were it to become busy now (§II.H).
func (v View) Promise() vt.Time {
	p := v.Clock.Add(v.MinCost).Add(v.WireDelay).Add(-1)
	if v.LastSentVT != vt.Never && v.LastSentVT > p {
		p = v.LastSentVT
	}
	return p
}

// Config tunes a Governor.
type Config struct {
	// Strategy selects the discipline.
	Strategy Strategy
	// Stride is the minimum promise advance (in ticks) before an
	// Aggressive or HyperAggressive sender pushes a fresh unprompted
	// promise. Default 100 µs.
	Stride vt.Ticks
}

func (c Config) withDefaults() Config {
	if c.Strategy == 0 {
		c.Strategy = Curiosity
	}
	if c.Stride <= 0 {
		c.Stride = 100_000 // 100 µs
	}
	return c
}

// Promise pairs a wire with the silence promise to emit on it.
type Promise struct {
	Wire    msg.WireID
	Through vt.Time
}

// Governor tracks, for one sending component, which silence promises have
// been made on each output wire, which standing curiosity targets are
// outstanding, and (for HyperAggressive) the output-VT floor implied by
// eager promises.
//
// Governor is not safe for concurrent use; the owning scheduler serializes
// access.
type Governor struct {
	cfg      Config
	promised map[msg.WireID]vt.Time // highest promise sent per wire
	// curiosity holds the standing probe targets in ascending wire order. It
	// is almost always empty and never longer than the component's output
	// fan-out, so a sorted slice beats a map: Advance walks it in promise
	// order without collecting and sorting keys.
	curiosity []standing
	floor     vt.Time // hyper: future outputs must be > floor
	trace     TraceFunc
}

// standing is one outstanding curiosity target.
type standing struct {
	wire   msg.WireID
	target vt.Time
}

// ViewSource supplies the current View of one output wire on demand, and
// whether the wire takes silence promises at all. The governor pulls a
// view only for a wire it is about to promise on, so a clock advance with
// nothing to promise costs the owner nothing.
type ViewSource interface {
	View(w msg.WireID) (View, bool)
}

// mapViews adapts a prebuilt view table to ViewSource.
type mapViews map[msg.WireID]View

func (m mapViews) View(w msg.WireID) (View, bool) {
	v, ok := m[w]
	return v, ok
}

// TraceFunc observes governor lifecycle events for flight recording. It is
// called synchronously under the owning scheduler's serialization with one
// of the Trace* event names, the wire, and the curiosity target.
type TraceFunc func(event string, w msg.WireID, target vt.Time)

// Governor trace event names.
const (
	TraceStandingCuriosity  = "standing-curiosity"
	TraceCuriositySatisfied = "curiosity-satisfied"
)

// SetTrace installs a trace hook (nil disables). Install before the
// governor is in use; the hook is invoked without additional locking.
func (g *Governor) SetTrace(fn TraceFunc) { g.trace = fn }

func (g *Governor) traceEvent(event string, w msg.WireID, target vt.Time) {
	if g.trace != nil {
		g.trace(event, w, target)
	}
}

// NewGovernor creates a governor for a component's output wires.
func NewGovernor(cfg Config) *Governor {
	return &Governor{
		cfg:      cfg.withDefaults(),
		promised: make(map[msg.WireID]vt.Time),
		floor:    vt.Never,
	}
}

// Strategy returns the governor's strategy.
func (g *Governor) Strategy() Strategy { return g.cfg.Strategy }

// Config returns the governor's effective (defaulted) configuration.
func (g *Governor) Config() Config { return g.cfg }

// CheckSwitch reports whether a component running cur may switch to next.
// Lazy, Curiosity, and Aggressive may be mixed and changed freely — how
// silence is *communicated* has no effect on behaviour (§II.G.4).
// HyperAggressive's bias, however, alters which future ticks may carry data
// (it is part of the estimator), so a switch into or out of it is rejected:
// a component runs it from launch or not at all.
func CheckSwitch(cur, next Config) error {
	from, to := cur.withDefaults().Strategy, next.withDefaults().Strategy
	if (from == HyperAggressive) != (to == HyperAggressive) {
		return fmt.Errorf("silence: switching %v -> %v adds or removes the hyper-aggressive bias, which affects output virtual times", from, to)
	}
	return nil
}

// ApplyFault installs a configuration on behalf of a logged determinism
// fault. Callers must have appended the corresponding fault record to the
// synchronous log first (§II.G.4) — this is the apply half of the
// log-then-apply discipline, mirroring estimator.Calibrated.Apply.
func (g *Governor) ApplyFault(cfg Config) {
	g.cfg = cfg.withDefaults()
}

// OnProbe handles an incoming curiosity probe on an output wire asking for
// silence through target, given the sender's current view of that wire.
// It returns the promise to send now (possibly below target — the best the
// sender can do) and records a standing target so later clock advances keep
// answering until the target is covered.
//
// A probe is always answered with the current promise, even when an equal
// promise was sent before: the receiver probing past it means the earlier
// answer was lost (a link fault) or the receiver restarted from a
// checkpoint without it — silence is communication, so re-sending is always
// safe and here necessary.
func (g *Governor) OnProbe(w msg.WireID, target vt.Time, view View) Promise {
	p := g.promiseFor(view)
	if p < target {
		i, ok := g.findCuriosity(w)
		switch {
		case !ok:
			g.curiosity = slices.Insert(g.curiosity, i, standing{wire: w, target: target})
			g.traceEvent(TraceStandingCuriosity, w, target)
		case target > g.curiosity[i].target:
			g.curiosity[i].target = target
			g.traceEvent(TraceStandingCuriosity, w, target)
		}
	}
	if p > g.promised[w] {
		g.promised[w] = p
	}
	return Promise{Wire: w, Through: g.promised[w]}
}

// Need returns how far a component's inputs must be silent for its promises
// to cover every standing curiosity target: the latest, over the targets,
// of the input watermark at which the wire's promise would reach the target
// (the inverse of View.Promise, less a HyperAggressive bias). It reports
// false when no target stands. A component that cannot answer a probe
// forwards it up the inputs that trail this horizon.
func (g *Governor) Need(src ViewSource) (vt.Time, bool) {
	need, ok := vt.Never, false
	for _, c := range g.curiosity {
		view, has := src.View(c.wire)
		if !has {
			continue
		}
		h := c.target.Add(-view.MinCost).Add(-view.WireDelay)
		if g.cfg.Strategy == HyperAggressive {
			h = h.Add(-bias)
		}
		if h > need {
			need, ok = h, true
		}
	}
	return need, ok
}

// Advance is called after the component's clock advances (it finished
// processing a message, went idle, or sent data). src supplies the current
// View of an output wire; wires lists, in ascending order, the wires src
// has views for. The promises the strategy wants pushed now are appended
// to out, in ascending wire order.
//
// Data messages themselves count as promises (a data message at VT t
// implies silence through t); the scheduler reports them via NoteData so
// the governor doesn't redundantly re-promise.
func (g *Governor) Advance(src ViewSource, wires []msg.WireID, out []Promise) []Promise {
	switch g.cfg.Strategy {
	case Curiosity:
		// Answer only standing curiosity targets; satisfied ones are
		// filtered out in place.
		keep := g.curiosity[:0]
		for _, c := range g.curiosity {
			if view, ok := src.View(c.wire); ok {
				if p := g.promiseFor(view); p > g.promised[c.wire] {
					g.promised[c.wire] = p
					out = append(out, Promise{Wire: c.wire, Through: p})
					if p >= c.target {
						g.traceEvent(TraceCuriositySatisfied, c.wire, c.target)
						continue
					}
				}
			}
			keep = append(keep, c)
		}
		g.curiosity = keep
	case Aggressive, HyperAggressive:
		for _, w := range wires {
			view, ok := src.View(w)
			if !ok {
				continue
			}
			p := g.promiseFor(view)
			prev, promised := g.promised[w]
			ci, curious := g.findCuriosity(w)
			due := !promised || p >= prev.Add(g.cfg.Stride)
			if curious && p > prev {
				due = true
			}
			if !due || (promised && p <= prev) {
				continue
			}
			g.promised[w] = p
			out = append(out, Promise{Wire: w, Through: p})
			if curious && p >= g.curiosity[ci].target {
				g.dropCuriosity(ci)
			}
		}
	}
	return out
}

// OnAdvance is Advance over a prebuilt view of every output wire, for
// callers that have one at hand.
func (g *Governor) OnAdvance(views map[msg.WireID]View) []Promise {
	var wires []msg.WireID // only the pushing strategies walk the wire list
	if g.cfg.Strategy == Aggressive || g.cfg.Strategy == HyperAggressive {
		wires = slices.Sorted(maps.Keys(views))
	}
	return g.Advance(mapViews(views), wires, nil)
}

// NoteData records that a data message with the given VT was sent on the
// wire; the message itself implies silence through its VT, and any standing
// curiosity at or below it is satisfied.
func (g *Governor) NoteData(w msg.WireID, t vt.Time) {
	if t > g.promised[w] {
		g.promised[w] = t
	}
	if i, ok := g.findCuriosity(w); ok && g.promised[w] >= g.curiosity[i].target {
		g.dropCuriosity(i)
	}
}

// OutputFloor returns the virtual time that future outputs must exceed
// (vt.Never when unconstrained). Only HyperAggressive governors constrain
// outputs.
func (g *Governor) OutputFloor() vt.Time { return g.floor }

// RestoreFloor reinstates a checkpointed output floor after recovery.
// Floors only grow; a restore below the current floor is ignored.
func (g *Governor) RestoreFloor(f vt.Time) {
	if f > g.floor {
		g.floor = f
	}
}

// promiseFor applies the strategy's bias on top of the view's knowledge.
func (g *Governor) promiseFor(view View) vt.Time {
	p := view.Promise()
	if g.cfg.Strategy == HyperAggressive {
		p = p.Add(bias)
		if p > g.floor {
			g.floor = p
		}
	}
	return p
}

// Promised returns the highest promise sent on the wire so far (0 if none).
func (g *Governor) Promised(w msg.WireID) vt.Time { return g.promised[w] }

// PendingCuriosity returns the standing curiosity target for the wire and
// whether one exists.
func (g *Governor) PendingCuriosity(w msg.WireID) (vt.Time, bool) {
	if i, ok := g.findCuriosity(w); ok {
		return g.curiosity[i].target, true
	}
	return 0, false
}

// findCuriosity returns the wire's slot in the standing-curiosity list, or
// where it would be inserted.
func (g *Governor) findCuriosity(w msg.WireID) (int, bool) {
	return slices.BinarySearchFunc(g.curiosity, w, func(c standing, w msg.WireID) int {
		return cmp.Compare(c.wire, w)
	})
}

// dropCuriosity retires the satisfied standing target in slot i.
func (g *Governor) dropCuriosity(i int) {
	c := g.curiosity[i]
	g.curiosity = slices.Delete(g.curiosity, i, i+1)
	g.traceEvent(TraceCuriositySatisfied, c.wire, c.target)
}
