// Package estimator implements the deterministic virtual-time estimators at
// the heart of TART (paper §II.E, §II.G.1, §II.H).
//
// An estimator predicts, as a deterministic function of the input message,
// how many ticks of virtual time a component's handler will consume. The
// runtime uses it to stamp output messages (outVT = dequeueVT + cost +
// commDelay) and to advance the component clock. Any estimate is *correct*
// (virtual times merely need to be causally monotonic), but performance is
// best when estimates track real time closely.
//
// Three estimator grades mirror the paper's evaluation:
//
//   - Constant — the "dumb" estimator: a fixed cost per message.
//   - Linear — the "smart" estimator: cost = Σ βᵢξᵢ over deterministic
//     message features (basic-block execution counts), Equation (1).
//   - Calibrated — a Linear estimator whose coefficients are refit by
//     linear regression over measured samples; every coefficient change is
//     a determinism fault that must be logged with the virtual time at
//     which it takes effect (§II.G.4), so that replay applies the same
//     coefficients at the same virtual times.
package estimator

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
	"repro/internal/vt"
)

// Features is a deterministic feature vector extracted from a message —
// in the paper's model, the number of times each basic block of the handler
// will execute (known from the message contents, e.g. sentence length).
type Features []float64

// FeatureFunc extracts features from a message payload. It must be
// deterministic: same payload, same features, on every engine and replay.
type FeatureFunc func(payload any) Features

// Estimator predicts handler compute cost in ticks. Implementations must be
// deterministic functions of (payload, at); `at` is the virtual time of the
// dequeue, which matters only for estimators whose coefficients change over
// virtual time (Calibrated).
type Estimator interface {
	// Cost returns the estimated compute cost, always >= 1 tick.
	Cost(payload any, at vt.Time) vt.Ticks
	// MinCost returns a lower bound on the cost of any possible message,
	// always >= 1 tick. Receivers use it to compute silence promises for
	// idle components ("idle time + shortest possible processing", §II.H).
	MinCost(at vt.Time) vt.Ticks
}

// Constant is the paper's "dumb" estimator: every message costs C ticks.
type Constant struct {
	C vt.Ticks
}

var _ Estimator = Constant{}

// Cost implements Estimator.
func (c Constant) Cost(any, vt.Time) vt.Ticks { return clampCost(c.C) }

// MinCost implements Estimator.
func (c Constant) MinCost(vt.Time) vt.Ticks { return clampCost(c.C) }

// Linear is the paper's "smart" estimator: cost = Σ βᵢ·ξᵢ(payload).
type Linear struct {
	// Extract produces the feature vector ξ.
	Extract FeatureFunc
	// Coeffs are the β coefficients, one per feature.
	Coeffs []float64
	// Min is the cost lower bound (the cheapest possible message). It must
	// be >= 1; zero is treated as 1.
	Min vt.Ticks
}

var _ Estimator = (*Linear)(nil)

// NewLinear builds a linear estimator.
func NewLinear(extract FeatureFunc, coeffs []float64, min vt.Ticks) *Linear {
	cp := make([]float64, len(coeffs))
	copy(cp, coeffs)
	return &Linear{Extract: extract, Coeffs: cp, Min: min}
}

// Cost implements Estimator.
func (l *Linear) Cost(payload any, _ vt.Time) vt.Ticks {
	return costOf(l.Extract(payload), l.Coeffs, l.Min)
}

// MinCost implements Estimator.
func (l *Linear) MinCost(vt.Time) vt.Ticks { return clampCost(l.Min) }

func costOf(f Features, coeffs []float64, min vt.Ticks) vt.Ticks {
	var c float64
	for i, b := range coeffs {
		if i < len(f) {
			c += b * f[i]
		}
	}
	t := vt.Ticks(c)
	if t < min {
		t = min
	}
	return clampCost(t)
}

func clampCost(t vt.Ticks) vt.Ticks {
	if t < 1 {
		return 1
	}
	return t
}

// Fault is a determinism fault: a coefficient change that takes effect at a
// specific virtual time. Faults are produced by Calibrated.Observe, logged
// synchronously by the engine, and applied via Calibrated.Apply — both
// during live execution and during replay (paper §II.G.4).
type Fault struct {
	// EffectiveVT is the virtual time at and after which the new
	// coefficients govern cost computation.
	EffectiveVT vt.Time
	// Coeffs are the new β coefficients.
	Coeffs []float64
}

// String renders the fault.
func (f Fault) String() string {
	return fmt.Sprintf("determinism-fault@%s coeffs=%v", f.EffectiveVT, f.Coeffs)
}

// epoch is one coefficient regime: Coeffs govern from From onward.
type epoch struct {
	From   vt.Time
	Coeffs []float64
}

// sample is one calibration observation.
type sample struct {
	F Features
	Y float64 // measured cost in ticks
}

// Config tunes a Calibrated estimator.
type Config struct {
	// MinSamples is the number of observations required before the first
	// refit ("after several hundreds of messages", §II.E). Default 300.
	MinSamples int
	// RefitEvery is the number of additional observations between refit
	// proposals after the first. Default: same as MinSamples.
	RefitEvery int
	// RelThreshold suppresses faults for refits whose coefficients all move
	// by less than this relative fraction — determinism faults are "an
	// extra overhead whose frequency we expect to minimize" (§II.G.4).
	// Default 0.02 (2%).
	RelThreshold float64
	// MaxSamples bounds the sample window (older samples are discarded).
	// Default 4× MinSamples.
	MaxSamples int
}

func (c Config) withDefaults() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = 300
	}
	if c.RefitEvery <= 0 {
		c.RefitEvery = c.MinSamples
	}
	if c.RelThreshold <= 0 {
		c.RelThreshold = 0.02
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 4 * c.MinSamples
	}
	return c
}

// Calibrated wraps a Linear estimator with regression-based recalibration.
// Cost lookups are deterministic given the applied fault history; Observe
// merely accumulates measurements and proposes faults, which take effect
// only when the engine logs and Applies them.
//
// Calibrated is safe for concurrent use.
type Calibrated struct {
	mu       sync.Mutex
	extract  FeatureFunc
	min      vt.Ticks
	epochs   []epoch // sorted by From; epochs[0].From == vt.Zero
	samples  []sample
	cfg      Config
	sinceFit int
	fitted   bool
}

var _ Estimator = (*Calibrated)(nil)

// NewCalibrated wraps the initial linear model (a rough static estimate,
// e.g. "known costs per instruction", §II.H) with recalibration.
func NewCalibrated(initial *Linear, cfg Config) *Calibrated {
	coeffs := make([]float64, len(initial.Coeffs))
	copy(coeffs, initial.Coeffs)
	return &Calibrated{
		extract: initial.Extract,
		min:     clampCost(initial.Min),
		epochs:  []epoch{{From: vt.Zero, Coeffs: coeffs}},
		cfg:     cfg.withDefaults(),
	}
}

// Clone returns an independent copy of the estimator: same extractor,
// bound, tuning, and a deep copy of the applied epoch history, but none of
// the pending sample window. A replay sandbox clones the live estimator so
// replayed deliveries are costed with the same fault history without the
// sandbox's Apply calls mutating the live epochs.
func (c *Calibrated) Clone() *Calibrated {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := &Calibrated{extract: c.extract, min: c.min, cfg: c.cfg}
	cp.epochs = make([]epoch, len(c.epochs))
	for i, e := range c.epochs {
		coeffs := make([]float64, len(e.Coeffs))
		copy(coeffs, e.Coeffs)
		cp.epochs[i] = epoch{From: e.From, Coeffs: coeffs}
	}
	return cp
}

// Cost implements Estimator. The coefficients in effect at virtual time
// `at` are used, so a component replaying past a logged fault reproduces
// the pre-fault estimates exactly.
func (c *Calibrated) Cost(payload any, at vt.Time) vt.Ticks {
	c.mu.Lock()
	coeffs := c.coeffsAtLocked(at)
	c.mu.Unlock()
	return costOf(c.extract(payload), coeffs, c.min)
}

// MinCost implements Estimator.
func (c *Calibrated) MinCost(vt.Time) vt.Ticks { return c.min }

func (c *Calibrated) coeffsAtLocked(at vt.Time) []float64 {
	i := sort.Search(len(c.epochs), func(i int) bool { return c.epochs[i].From > at })
	if i == 0 {
		return c.epochs[0].Coeffs
	}
	return c.epochs[i-1].Coeffs
}

// Observe records one measurement (the feature vector of a processed
// message and its measured cost in ticks). If enough samples have
// accumulated and the refit moves the coefficients materially, Observe
// returns a proposed Fault with EffectiveVT unset (the scheduler fills it
// in with a safely-future virtual time before logging and applying).
// Otherwise it returns nil.
func (c *Calibrated) Observe(f Features, measured vt.Ticks) *Fault {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, sample{F: f, Y: float64(measured)})
	if len(c.samples) > c.cfg.MaxSamples {
		c.samples = c.samples[len(c.samples)-c.cfg.MaxSamples:]
	}
	c.sinceFit++
	need := c.cfg.RefitEvery
	if !c.fitted {
		need = c.cfg.MinSamples
	}
	if c.sinceFit < need || len(c.samples) < c.cfg.MinSamples {
		return nil
	}
	c.sinceFit = 0

	rows := make([][]float64, len(c.samples))
	ys := make([]float64, len(c.samples))
	for i, s := range c.samples {
		rows[i] = s.F
		ys[i] = s.Y
	}
	fit, err := stats.OLS(rows, ys)
	if err != nil {
		return nil // degenerate sample window; try again later
	}
	c.fitted = true
	cur := c.epochs[len(c.epochs)-1].Coeffs
	if !materiallyDifferent(cur, fit.Coeffs, c.cfg.RelThreshold) {
		return nil
	}
	return &Fault{Coeffs: fit.Coeffs}
}

// Apply installs a logged fault. Faults must be applied in non-decreasing
// EffectiveVT order; an out-of-order fault is rejected.
func (c *Calibrated) Apply(f Fault) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	last := c.epochs[len(c.epochs)-1]
	if f.EffectiveVT < last.From {
		return fmt.Errorf("estimator: fault at %s applied after fault at %s", f.EffectiveVT, last.From)
	}
	coeffs := make([]float64, len(f.Coeffs))
	copy(coeffs, f.Coeffs)
	if f.EffectiveVT == last.From {
		c.epochs[len(c.epochs)-1].Coeffs = coeffs
		return nil
	}
	c.epochs = append(c.epochs, epoch{From: f.EffectiveVT, Coeffs: coeffs})
	return nil
}

// State captures the estimator's checkpointable state.
type State struct {
	Epochs []StateEpoch
}

// StateEpoch is one coefficient regime in a checkpoint.
type StateEpoch struct {
	From   vt.Time
	Coeffs []float64
}

// State returns the applied fault history for checkpointing. The sample
// window is deliberately excluded: samples do not affect behaviour until a
// fault is committed, and a recovered replica re-accumulates them.
func (c *Calibrated) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{Epochs: make([]StateEpoch, len(c.epochs))}
	for i, e := range c.epochs {
		coeffs := make([]float64, len(e.Coeffs))
		copy(coeffs, e.Coeffs)
		st.Epochs[i] = StateEpoch{From: e.From, Coeffs: coeffs}
	}
	return st
}

// SetState restores a checkpointed fault history.
func (c *Calibrated) SetState(st State) error {
	if len(st.Epochs) == 0 {
		return fmt.Errorf("estimator: state has no epochs")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs = make([]epoch, len(st.Epochs))
	for i, e := range st.Epochs {
		coeffs := make([]float64, len(e.Coeffs))
		copy(coeffs, e.Coeffs)
		c.epochs[i] = epoch{From: e.From, Coeffs: coeffs}
	}
	c.samples = nil
	c.sinceFit = 0
	return nil
}

func materiallyDifferent(old, fresh []float64, rel float64) bool {
	if len(old) != len(fresh) {
		return true
	}
	for i := range old {
		base := old[i]
		if base < 0 {
			base = -base
		}
		if base < 1 {
			base = 1
		}
		d := fresh[i] - old[i]
		if d < 0 {
			d = -d
		}
		if d/base > rel {
			return true
		}
	}
	return false
}
