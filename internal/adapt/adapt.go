// Package adapt implements the closed-loop adaptive runtime controller:
// it turns three observability signals — pessimism blame, SLO burn rate
// and the delivery rate against a span budget — into two deterministic
// control actions — silence-strategy selection and the span-sampling
// modulus. Estimator coefficients are not among them: the scheduler's
// regression owns those.
//
// The controller itself is deliberately non-deterministic (it reads wall
// time and load); determinism is preserved by *how* its decisions take
// effect, never by how they are made. Every action is stamped with a
// VT-quantized, strictly-future epoch boundary and routed through a logged
// determinism fault (silence changes) or an append-only epoch schedule
// (sampling), so a replay, a passive replica, or a time-travel rewind
// re-derives the identical behaviour from the log instead of re-running the
// control loop (paper §II.G.4).
//
// The package is pure policy: no goroutines, no clocks, no I/O. The
// cluster's adaptive loop harvests an Observation each tick, calls Step,
// and routes the returned Decisions to the engines, handing back to Reject
// any the engines did not commit.
package adapt

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"time"

	"repro/internal/silence"
	"repro/internal/vt"
)

// maxSampleN caps the budget-implied sampling modulus: even the busiest
// cluster keeps tracing one origin in about a million.
const maxSampleN = 1 << 20

// Kind discriminates adaptive decisions.
type Kind string

// Decision kinds.
const (
	// KindSilence switches a component's silence-propagation strategy
	// through a logged determinism fault.
	KindSilence Kind = "silence"
	// KindSampling steps the cluster-wide span-sampling modulus through the
	// append-only rate-epoch schedule.
	KindSampling Kind = "sampling"
)

// Decision is one control action the caller must route to the engines. All
// decisions carry the VT epoch boundary at which they take effect.
type Decision struct {
	// Seq numbers decisions over the controller's lifetime (1-based).
	Seq uint64 `json:"seq"`
	// Kind discriminates the action.
	Kind Kind `json:"kind"`
	// Component is the target component (the silence governor's owner;
	// empty for cluster-wide sampling steps).
	Component string `json:"component,omitempty"`
	// Wire is the blamed wire label that motivated a silence decision.
	Wire string `json:"wire,omitempty"`
	// EffectiveVT is the quantized, strictly-future epoch boundary the
	// decision takes effect at.
	EffectiveVT vt.Time `json:"effectiveVT"`
	// Silence is the full configuration to install (silence only).
	Silence silence.Config `json:"silence,omitzero"`
	// SampleN is the new sampling modulus (sampling only).
	SampleN uint64 `json:"sampleN,omitempty"`
	// Cause is the human-readable signal that motivated the decision.
	Cause string `json:"cause"`
	// At is the wall-clock time of the observation the decision was taken
	// on (observability only; never replayed).
	At time.Time `json:"at"`
}

// String renders the decision compactly for logs and tartctl.
func (d Decision) String() string {
	switch d.Kind {
	case KindSilence:
		return fmt.Sprintf("#%d silence %s -> %s @%v (%s)", d.Seq, d.Component, d.Silence.Strategy, d.EffectiveVT, d.Cause)
	case KindSampling:
		return fmt.Sprintf("#%d sampling 1/%d @%v (%s)", d.Seq, d.SampleN, d.EffectiveVT, d.Cause)
	default:
		return fmt.Sprintf("#%d %s @%v (%s)", d.Seq, d.Kind, d.EffectiveVT, d.Cause)
	}
}

// WireBlame is the cumulative pessimism blame attributed to one input
// wire: the receiver waited Seconds (in total, since start) with this wire
// as the last holdout, and Upstream is the sending component whose silence
// strategy can shrink it.
type WireBlame struct {
	Upstream string
	Seconds  float64
}

// Observation is one harvest of the cluster's observability signals.
type Observation struct {
	// Now is the newest live engine VT clock; epoch boundaries are
	// quantized relative to it.
	Now vt.Time
	// Wall is when the harvest was taken: it times the delivery-rate
	// window and stamps the decisions.
	Wall time.Time
	// Delivered is the cluster's cumulative delivered-message count. Every
	// engine incarnation counts from zero, so it falls when a slot recovers.
	Delivered int64
	// Blame maps wire label to its cumulative blame. Cumulative, not
	// windowed: the controller differences successive observations itself,
	// so a harvest may be lost without corrupting the window.
	Blame map[string]WireBlame
	// BurnRate is the worst SLO error-budget burn rate (>1 means the
	// budget is being consumed faster than allotted; 0 when no tracker).
	BurnRate float64
	// SampleN is the span-sampling modulus currently in force.
	SampleN uint64
}

// Config tunes a Controller.
type Config struct {
	// Quantum is the VT grain decisions are quantized to. Default
	// 250ms of virtual time.
	Quantum vt.Ticks
	// Window is how many Steps of blame history feed strategy selection.
	// Default 4.
	Window int
	// MinBlameSeconds is the windowed blame below which no strategy
	// escalation happens. Default 10ms.
	MinBlameSeconds float64
	// BlameShare is the fraction of the window's total blame the dominant
	// wire must hold before its upstream is escalated. Default 0.5.
	BlameShare float64
	// QuietWindows is how many consecutive blame-free Steps an escalated
	// component must see before stepping back down. Default 8.
	QuietWindows int
	// Cooldown is how many Steps a component rests after a strategy
	// change before the next one. Default 2.
	Cooldown int
	// Bias is the promise bias installed when escalating to
	// HyperAggressive. Default 2ms of virtual time.
	Bias vt.Ticks
	// MaxStrategy caps escalation. Default HyperAggressive; chaos
	// variants cap at Aggressive to stay VT-neutral.
	MaxStrategy silence.Strategy
	// BurnThreshold is the SLO burn rate above which the runtime degrades
	// (recovery happens below half of it). Default 1.0.
	BurnThreshold float64
	// DegradedSampleN is the sampling modulus floor while degraded.
	// Default 64.
	DegradedSampleN uint64
	// SpansPerSec is the span budget: the sampling modulus follows the
	// delivery rate so that deliveries/s / N stays under it. 0 keeps the
	// modulus New was given.
	SpansPerSec float64
	// History bounds the retained decision ring. Default 64.
	History int
}

func (c Config) withDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = vt.Ticks(250e6)
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.MinBlameSeconds <= 0 {
		c.MinBlameSeconds = 0.010
	}
	if c.BlameShare <= 0 {
		c.BlameShare = 0.5
	}
	if c.QuietWindows <= 0 {
		c.QuietWindows = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2
	}
	if c.Bias <= 0 {
		c.Bias = vt.Ticks(2e6) // 2ms
	}
	if c.MaxStrategy == 0 {
		c.MaxStrategy = silence.HyperAggressive
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 1.0
	}
	if c.DegradedSampleN == 0 {
		c.DegradedSampleN = 64
	}
	if c.History <= 0 {
		c.History = 64
	}
	return c
}

// wireState is the per-wire blame bookkeeping.
type wireState struct {
	upstream string
	lastCum  float64   // cumulative seconds at the previous Step
	deltas   []float64 // ring of the last Window per-Step deltas
}

// strat is a component's selected silence strategy and its escalation
// bookkeeping.
type strat struct {
	current  silence.Config
	level    int // 0 = baseline, 1 = Aggressive, 2 = HyperAggressive+bias
	quiet    int // consecutive blame-free Steps
	cooldown int // Steps until the next change is allowed
}

// stratState is the per-component silence-strategy bookkeeping.
type stratState struct {
	base silence.Config // the configured baseline to fall back to
	strat
	// undo is what the decision numbered undoSeq replaced; Reject restores
	// it when the engine does not commit that decision.
	undo    strat
	undoSeq uint64
}

// Controller is the adaptive policy. Not safe for concurrent use; the
// cluster's single adaptive loop owns it (Status takes a snapshot the
// debug endpoint can serve from any goroutine via the loop's mutex).
type Controller struct {
	cfg          Config
	wires        map[string]*wireState
	strats       map[string]*stratState
	degraded     bool      // SLO burn floors the modulus at DegradedSampleN
	sampleN      uint64    // budget-implied modulus; the configured one without a budget
	rate         float64   // deliveries/s over the last rate window
	lastDlvd     int64     // Observation.Delivered at the previous Step
	lastWall     time.Time // Observation.Wall at the previous Step
	seq          uint64
	lastBoundary vt.Time
	decisions    []Decision // ring, newest last
}

// New builds a controller. baseline maps each adaptable component to its
// configured silence baseline (the strategy de-escalation returns to);
// components absent from it are never escalated. sampleN is the configured
// sampling modulus, which holds until a span budget's first rate window.
func New(cfg Config, baseline map[string]silence.Config, sampleN uint64) *Controller {
	c := &Controller{
		cfg:     cfg.withDefaults(),
		wires:   make(map[string]*wireState),
		strats:  make(map[string]*stratState),
		sampleN: max(sampleN, 1),
	}
	for name, base := range baseline {
		c.strats[name] = &stratState{base: base, strat: strat{current: base}}
	}
	return c
}

// boundary returns the shared, monotonic, VT-quantized epoch boundary for
// decisions taken at now: the first quantum boundary at least one full
// quantum in the future, so every engine within one quantum of now passes
// it strictly later.
func (c *Controller) boundary(now vt.Time) vt.Time {
	q := int64(c.cfg.Quantum)
	b := vt.Time(((int64(now)+q)/q + 1) * q)
	if b < c.lastBoundary {
		b = c.lastBoundary
	}
	c.lastBoundary = b
	return b
}

func (c *Controller) record(obs Observation, d Decision) Decision {
	c.seq++
	d.Seq = c.seq
	d.At = obs.Wall
	c.decisions = append(c.decisions, d)
	if len(c.decisions) > c.cfg.History {
		c.decisions = c.decisions[len(c.decisions)-c.cfg.History:]
	}
	return d
}

// Step consumes one observation and returns the decisions to act on, in a
// deterministic order (sampling, then at most one silence change).
func (c *Controller) Step(obs Observation) []Decision {
	var out []Decision
	at := c.boundary(obs.Now)
	if d, ok := c.stepSampling(obs, at); ok {
		out = append(out, d)
	}
	if d, ok := c.stepBlame(obs, at); ok {
		out = append(out, d)
	}
	return out
}

// Reject undoes a decision the engines did not commit: it leaves the
// decision ring, and a silence step is taken back so StrategyOf reports
// what the engine runs and a later Step can propose it again. Sampling needs
// no undo: the next Step compares against the observed modulus.
func (c *Controller) Reject(d Decision) {
	c.decisions = slices.DeleteFunc(c.decisions, func(r Decision) bool { return r.Seq == d.Seq })
	if st := c.strats[d.Component]; d.Kind == KindSilence && st != nil && st.undoSeq == d.Seq {
		st.strat, st.undoSeq = st.undo, 0
	}
}

// stepSampling sets the span-sampling modulus: the power of two that keeps
// the delivery rate under the span budget (or the configured modulus
// without one), never below DegradedSampleN while SLO burn degrades the
// runtime. Burn above BurnThreshold degrades, and below half of it
// restores; degradation also lets stepBlame escalate more readily.
func (c *Controller) stepSampling(obs Observation, at vt.Time) (Decision, bool) {
	switch {
	case !c.degraded && obs.BurnRate > c.cfg.BurnThreshold:
		c.degraded = true
	case c.degraded && obs.BurnRate < c.cfg.BurnThreshold/2:
		c.degraded = false
	}
	last, lastWall := c.lastDlvd, c.lastWall
	c.lastDlvd, c.lastWall = obs.Delivered, obs.Wall
	// No rate from the first observation, from a window without wall time,
	// or from one whose count fell because a slot restarted counting.
	dt := obs.Wall.Sub(lastWall).Seconds()
	if c.cfg.SpansPerSec > 0 && !lastWall.IsZero() && dt > 0 && obs.Delivered >= last {
		c.rate = float64(obs.Delivered-last) / dt
		// A sampled delivery yields a handful of spans (queueing, pessimism,
		// compute, linger); budget against that fan-out, then round the
		// modulus up to a power of two so small rate wobbles don't thrash.
		const spansPerDelivery = 3
		need := min(c.rate*spansPerDelivery/c.cfg.SpansPerSec, maxSampleN)
		c.sampleN = nextPow2(uint64(need))
	}
	want := c.sampleN
	if c.degraded {
		want = max(want, c.cfg.DegradedSampleN)
	}
	if want == obs.SampleN {
		return Decision{}, false
	}
	cause := fmt.Sprintf("1/%d -> 1/%d", obs.SampleN, want)
	if c.cfg.SpansPerSec > 0 {
		cause += fmt.Sprintf(", %.0f deliveries/s against %.0f spans/s", c.rate, c.cfg.SpansPerSec)
	}
	if c.degraded {
		cause += fmt.Sprintf(", slo burn %.2f holds it at 1/%d or sparser", obs.BurnRate, c.cfg.DegradedSampleN)
	} else if obs.BurnRate > 0 {
		cause += fmt.Sprintf(", slo burn %.2f", obs.BurnRate)
	}
	return c.record(obs, Decision{Kind: KindSampling, EffectiveVT: at, SampleN: want, Cause: cause}), true
}

func nextPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len64(v-1)
}

// stepBlame implements blame-driven silence-strategy selection: the wire
// dominating the recent pessimism-blame window gets its upstream escalated
// one step (baseline → Aggressive → HyperAggressive with bias, capped at
// MaxStrategy); sustained quiet steps an escalated component back down.
func (c *Controller) stepBlame(obs Observation, at vt.Time) (Decision, bool) {
	// Fold this Step's cumulative readings into per-wire delta windows.
	compBlame := make(map[string]float64) // upstream component -> windowed seconds
	var total float64
	for _, label := range slices.Sorted(maps.Keys(obs.Blame)) {
		wb := obs.Blame[label]
		ws := c.wires[label]
		if ws == nil {
			ws = &wireState{upstream: wb.Upstream, lastCum: wb.Seconds}
			c.wires[label] = ws
			continue // first sighting: no delta yet
		}
		delta := wb.Seconds - ws.lastCum
		if delta < 0 {
			delta = 0 // counter reset (failover)
		}
		ws.lastCum = wb.Seconds
		ws.upstream = wb.Upstream
		ws.deltas = append(ws.deltas, delta)
		if len(ws.deltas) > c.cfg.Window {
			ws.deltas = ws.deltas[len(ws.deltas)-c.cfg.Window:]
		}
		sum := 0.0
		for _, d := range ws.deltas {
			sum += d
		}
		compBlame[wb.Upstream] += sum
		total += sum
	}

	// Quiet / cooldown bookkeeping for every adaptable component.
	minBlame := c.cfg.MinBlameSeconds
	if c.degraded {
		minBlame /= 4 // burn pressure: escalate on weaker evidence
	}
	resting := make(map[string]bool)
	for _, name := range slices.Sorted(maps.Keys(c.strats)) {
		st := c.strats[name]
		if st.cooldown > 0 {
			resting[name] = true
			st.cooldown--
		}
		if compBlame[name] < minBlame/4 {
			st.quiet++
		} else {
			st.quiet = 0
		}
	}

	// Escalate the dominant blamed upstream, if it clears the bar.
	var worst string
	var worstSum float64
	var worstWire string
	for _, label := range slices.Sorted(maps.Keys(c.wires)) {
		ws := c.wires[label]
		st := c.strats[ws.upstream]
		if st == nil || resting[ws.upstream] {
			continue
		}
		if s := compBlame[ws.upstream]; s > worstSum {
			worst, worstSum, worstWire = ws.upstream, s, label
		}
	}
	if worst != "" && worstSum >= minBlame && (total <= 0 || worstSum/total >= c.cfg.BlameShare) {
		st := c.strats[worst]
		if next, ok := c.escalated(st); ok {
			st.undo = st.strat
			st.current = next
			st.level++
			st.quiet = 0
			st.cooldown = c.cfg.Cooldown
			d := c.record(obs, Decision{
				Kind:        KindSilence,
				Component:   worst,
				Wire:        worstWire,
				EffectiveVT: at,
				Silence:     next,
				Cause:       fmt.Sprintf("wire %s blamed for %.1fms over window: %s -> %s", worstWire, worstSum*1e3, st.undo.current.Strategy, next.Strategy),
			})
			st.undoSeq = d.Seq
			return d, true
		}
	}

	// De-escalate one sustained-quiet component per Step.
	for _, name := range slices.Sorted(maps.Keys(c.strats)) {
		st := c.strats[name]
		if st.level == 0 || st.quiet < c.cfg.QuietWindows || resting[name] {
			continue
		}
		st.undo = st.strat
		st.level--
		if st.level == 0 {
			st.current = st.base
		} else {
			st.current = silence.Config{Strategy: silence.Aggressive, Stride: st.base.Stride}
		}
		st.quiet = 0
		st.cooldown = c.cfg.Cooldown
		d := c.record(obs, Decision{
			Kind:        KindSilence,
			Component:   name,
			EffectiveVT: at,
			Silence:     st.current,
			Cause:       fmt.Sprintf("blame quiet for %d windows: %s -> %s", c.cfg.QuietWindows, st.undo.current.Strategy, st.current.Strategy),
		})
		st.undoSeq = d.Seq
		return d, true
	}
	return Decision{}, false
}

// escalated returns the next-more-eager configuration for st, or false
// when already at the cap.
func (c *Controller) escalated(st *stratState) (silence.Config, bool) {
	switch {
	case st.level == 0 && st.current.Strategy < silence.Aggressive && c.cfg.MaxStrategy >= silence.Aggressive:
		return silence.Config{Strategy: silence.Aggressive, Stride: st.base.Stride}, true
	case st.level <= 1 && st.current.Strategy == silence.Aggressive && c.cfg.MaxStrategy >= silence.HyperAggressive:
		return silence.Config{Strategy: silence.HyperAggressive, Stride: st.base.Stride, Bias: c.cfg.Bias}, true
	default:
		return silence.Config{}, false
	}
}

// WireStrategy reports the silence strategy currently selected for the
// wire's upstream component (the baseline when the component is unknown).
type WireStrategy struct {
	Wire      string           `json:"wire"`
	Upstream  string           `json:"upstream"`
	Strategy  silence.Strategy `json:"-"`
	Name      string           `json:"strategy"`
	WindowSec float64          `json:"blameWindowSeconds"`
}

// Status is a JSON-able snapshot for /adapt and tartctl adapt.
type Status struct {
	Degraded  bool           `json:"degraded"`
	Wires     []WireStrategy `json:"wires,omitempty"`
	Decisions []Decision     `json:"decisions,omitempty"`
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	st := Status{Degraded: c.degraded}
	for _, label := range slices.Sorted(maps.Keys(c.wires)) {
		ws := c.wires[label]
		cfg := silence.Config{}
		if s := c.strats[ws.upstream]; s != nil {
			cfg = s.current
		}
		sum := 0.0
		for _, d := range ws.deltas {
			sum += d
		}
		name := "-"
		if cfg.Strategy != 0 {
			name = cfg.Strategy.String()
		}
		st.Wires = append(st.Wires, WireStrategy{
			Wire: label, Upstream: ws.upstream, Strategy: cfg.Strategy, Name: name, WindowSec: sum,
		})
	}
	st.Decisions = append(st.Decisions, c.decisions...)
	return st
}

// StrategyOf returns the currently selected configuration for a component
// and whether the component is adaptable.
func (c *Controller) StrategyOf(component string) (silence.Config, bool) {
	st, ok := c.strats[component]
	if !ok {
		return silence.Config{}, false
	}
	return st.current, true
}
