// Adaptive head-sampling: a shared, append-only schedule of rate epochs.
// Each epoch fixes the 1/N sampling modulus for origins whose emission
// virtual time falls inside it, so a controller can scale the span rate
// with observed traffic while keeping the paper's determinism contract:
// the sampling decision for an origin is a pure function of (origin,
// emission VT, schedule), all three of which are identical across the
// original run, a replay, and the passive replica.
//
// The proposer (the adaptive runtime's controller) picks each epoch's
// start: a VT-quantized boundary strictly in the future, so every engine —
// whose per-engine VT clocks are only loosely aligned — has stamped all
// in-flight emissions before a new rate can take effect. The decision
// itself additionally travels inside each envelope (msg.Envelope.Trace),
// so downstream hops and transports never re-derive it: a mid-journey rate
// change cannot half-trace an origin.
package span

import (
	"fmt"
	"sync"

	"repro/internal/msg"
	"repro/internal/vt"
)

// RateEpoch is one sampling-rate interval: origins emitted at or after
// Start (and before the next epoch's Start) are sampled 1-in-N.
type RateEpoch struct {
	Start vt.Time `json:"start"`
	N     uint64  `json:"n"`
}

// String renders the epoch compactly.
func (e RateEpoch) String() string { return fmt.Sprintf("1/%d @%v", e.N, e.Start) }

// Schedule is an append-only sequence of rate epochs shared by every
// collector in a cluster. Reads (NAt) are taken on source emission paths;
// appends happen at the controller's cadence, so a plain RWMutex is
// sufficient.
type Schedule struct {
	mu     sync.RWMutex
	epochs []RateEpoch
}

// NewSchedule creates a schedule whose first epoch starts at VT zero with
// modulus baseN (<= 0 selects DefaultSampleN).
func NewSchedule(baseN int) *Schedule {
	if baseN <= 0 {
		baseN = DefaultSampleN
	}
	return &Schedule{epochs: []RateEpoch{{Start: vt.Zero, N: uint64(baseN)}}}
}

// NAt returns the sampling modulus in force for an emission at virtual
// time t.
func (s *Schedule) NAt(t vt.Time) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Epochs are few and appended in Start order; scan from the newest.
	for i := len(s.epochs) - 1; i >= 0; i-- {
		if s.epochs[i].Start <= t {
			return s.epochs[i].N
		}
	}
	return s.epochs[0].N
}

// Current returns the newest epoch (the rate that will govern future
// emissions once its boundary passes).
func (s *Schedule) Current() RateEpoch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epochs[len(s.epochs)-1]
}

// Epochs returns a copy of the full epoch history.
func (s *Schedule) Epochs() []RateEpoch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]RateEpoch(nil), s.epochs...)
}

// Propose appends an epoch with modulus n starting at the given boundary,
// which the caller must have chosen strictly in the future of every
// engine's clock, so no emission is stamped under a rate that later
// changes retroactively. It reports false, appending nothing, when n
// already matches the newest epoch's modulus or the boundary does not lie
// beyond the newest epoch's start.
func (s *Schedule) Propose(n uint64, start vt.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := s.epochs[len(s.epochs)-1]
	if last.N == n || start <= last.Start {
		return false
	}
	s.epochs = append(s.epochs, RateEpoch{Start: start, N: n})
	return true
}

// SetSchedule attaches an adaptive rate schedule to the collector. Attach
// before traffic flows; the field is read without synchronization. A nil
// schedule keeps the static SampleN rule.
func (c *Collector) SetSchedule(s *Schedule) {
	if c != nil {
		c.schedule = s
	}
}

// DecideAt computes the head-sampling decision for an origin emitted at
// virtual time t: msg.TraceSampled or msg.TraceUnsampled. A nil collector
// or a zero origin yields zero ("undecided"), which consumers resolve with
// the static fallback. Sources call this once per external input and stamp
// the result into the envelope; replay paths recompute it from the logged
// (origin, VT) pair and — because the schedule is append-only and
// boundaries are always scheduled in the future — obtain the identical
// answer.
func (c *Collector) DecideAt(o msg.OriginID, t vt.Time) int8 {
	if c == nil || o == 0 {
		return 0
	}
	n := c.sampleN
	if c.schedule != nil {
		n = c.schedule.NAt(t)
	}
	if n <= 1 || originHash(uint64(o))%n == 0 {
		return msg.TraceSampled
	}
	return msg.TraceUnsampled
}

// Decided resolves an envelope's carried trace mark against this
// collector: an explicit mark wins; an undecided (zero) mark falls back to
// the static Sampled rule so hand-built envelopes and pre-upgrade traffic
// keep their old behaviour. A nil collector samples nothing.
func (c *Collector) Decided(mark int8, o msg.OriginID) bool {
	if c == nil {
		return false
	}
	if mark != 0 {
		return mark > 0
	}
	return c.Sampled(o)
}

// OriginHash exposes the sampling hash (splitmix64 finalizer) so external
// consumers — the OTLP exporter derives 128-bit trace IDs from it — agree
// with the sampler's view of an origin's identity.
func OriginHash(o msg.OriginID) uint64 { return originHash(uint64(o)) }
