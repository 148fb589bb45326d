// Package adapt implements the adaptive runtime's sampling policy: it turns
// one observability signal, the delivery rate against a span budget, into
// one deterministic control action, the span-sampling modulus. Silence
// strategies and estimator coefficients are not among its actions: an
// operator's Cluster.SetSilenceStrategy and the scheduler's regression own
// those.
//
// The controller itself is deliberately non-deterministic (it reads wall
// time and load); determinism is preserved by *how* its decisions take
// effect, never by how they are made. Every modulus is stamped with a
// VT-quantized, strictly-future epoch boundary and appended to the span
// package's epoch schedule, so a replay, a passive replica, or a
// time-travel rewind re-derives the identical sampling from the schedule
// instead of re-running the control loop (paper §II.G.4).
//
// The package is pure policy: no goroutines, no clocks, no I/O. The
// cluster's adaptive loop harvests an Observation each tick and calls Step,
// which hands any decision to the cluster to commit.
package adapt

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/vt"
)

// maxSampleN caps the budget-implied sampling modulus: even the busiest
// cluster keeps tracing one origin in about a million.
const maxSampleN = 1 << 20

// Decision is one sampling-modulus switch the caller must route to the
// span schedule, stamped with the VT epoch boundary it takes effect at.
type Decision struct {
	// Seq numbers committed decisions over the controller's lifetime
	// (1-based).
	Seq uint64 `json:"seq"`
	// EffectiveVT is the quantized, strictly-future epoch boundary the
	// decision takes effect at.
	EffectiveVT vt.Time `json:"effectiveVT"`
	// SampleN is the new sampling modulus.
	SampleN uint64 `json:"sampleN"`
	// Cause is the human-readable signal that motivated the decision.
	Cause string `json:"cause"`
	// At is the wall-clock time of the observation the decision was taken
	// on (observability only; never replayed).
	At time.Time `json:"at"`
}

// String renders the decision compactly for logs and tartctl.
func (d Decision) String() string {
	return fmt.Sprintf("#%d sampling 1/%d @%v (%s)", d.Seq, d.SampleN, d.EffectiveVT, d.Cause)
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
	// SampleN is the span-sampling modulus currently in force.
	SampleN uint64
}

// Config tunes a Controller.
type Config struct {
	// Quantum is the VT grain decisions are quantized to. Default
	// 250ms of virtual time.
	Quantum vt.Ticks
	// SpansPerSec is the span budget: the sampling modulus follows the
	// delivery rate so that deliveries/s / N stays under it. Must be
	// positive.
	SpansPerSec float64
	// History bounds the retained decision ring. Default 64.
	History int
}

func (c Config) withDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = vt.Ticks(250e6)
	}
	if c.History <= 0 {
		c.History = 64
	}
	return c
}

// Controller is the adaptive policy. Not safe for concurrent use; the
// cluster's single adaptive loop owns it (Status takes a snapshot the
// debug endpoint can serve from any goroutine via the loop's mutex).
type Controller struct {
	cfg          Config
	sampleN      uint64    // budget-implied modulus; the configured one before the first rate window
	rate         float64   // deliveries/s over the last rate window
	lastDlvd     int64     // Observation.Delivered at the previous Step
	lastWall     time.Time // Observation.Wall at the previous Step
	seq          uint64
	lastBoundary vt.Time
	decisions    []Decision // ring, newest last
}

// New builds a controller. sampleN is the configured sampling modulus,
// which holds until a span budget's first rate window.
func New(cfg Config, sampleN uint64) *Controller {
	return &Controller{cfg: cfg.withDefaults(), sampleN: max(sampleN, 1)}
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

// Step consumes one observation and sets the span-sampling modulus: the
// power of two that keeps the delivery rate under the span budget. When
// the modulus differs from the one in force, Step hands the decision to
// commit; one commit accepts is numbered and kept in the decision ring. A
// refused one needs no undo: the next Step compares against the modulus it
// then observes in force.
func (c *Controller) Step(obs Observation, commit func(Decision) bool) {
	at := c.boundary(obs.Now)
	last, lastWall := c.lastDlvd, c.lastWall
	c.lastDlvd, c.lastWall = obs.Delivered, obs.Wall
	// No rate from the first observation, from a window without wall time,
	// or from one whose count fell because a slot restarted counting.
	dt := obs.Wall.Sub(lastWall).Seconds()
	if !lastWall.IsZero() && dt > 0 && obs.Delivered >= last {
		c.rate = float64(obs.Delivered-last) / dt
		// A sampled delivery yields a handful of spans (queueing, pessimism,
		// compute, linger); budget against that fan-out, then round the
		// modulus up to a power of two so small rate wobbles don't thrash.
		const spansPerDelivery = 3
		need := min(c.rate*spansPerDelivery/c.cfg.SpansPerSec, maxSampleN)
		c.sampleN = nextPow2(uint64(need))
	}
	want := c.sampleN
	if want == obs.SampleN {
		return
	}
	cause := fmt.Sprintf("1/%d -> 1/%d, %.0f deliveries/s against %.0f spans/s", obs.SampleN, want, c.rate, c.cfg.SpansPerSec)
	d := Decision{Seq: c.seq + 1, EffectiveVT: at, SampleN: want, Cause: cause, At: obs.Wall}
	if !commit(d) {
		return
	}
	c.seq++
	c.decisions = append(c.decisions, d)
	if len(c.decisions) > c.cfg.History {
		c.decisions = c.decisions[len(c.decisions)-c.cfg.History:]
	}
}

func nextPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len64(v-1)
}

// Status is a JSON-able snapshot for /adapt and tartctl adapt.
type Status struct {
	Decisions []Decision `json:"decisions,omitempty"`
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	return Status{Decisions: append([]Decision(nil), c.decisions...)}
}
