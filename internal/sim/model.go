package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Mode selects the merger's execution discipline (§III.A).
type Mode int

// The three simulated execution modes.
const (
	// NonDeterministic processes messages in real-time arrival order.
	NonDeterministic Mode = iota + 1
	// Deterministic processes in virtual-time order, probing for silence
	// on pessimism delays; busy senders do not know their remaining
	// iteration count.
	Deterministic
	// Prescient is Deterministic, but a probed busy sender knows exactly
	// how many iterations remain (the loop bound is computed up front).
	Prescient
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case NonDeterministic:
		return "non-deterministic"
	case Deterministic:
		return "deterministic"
	case Prescient:
		return "prescient"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Jitter maps a service of k iterations to its per-iteration real
// durations: the relationship between virtual progress and real time.
type Jitter interface {
	// ServiceReal returns k per-iteration real durations (ns).
	ServiceReal(k int, rng *stats.RNG) []float64
}

// TickNormalJitter is the paper's first (admittedly unrealistic) model:
// each virtual tick takes N(1, TickSD) real ticks, so an iteration of
// IterMean virtual ns takes ~N(IterMean, TickSD·√IterMean) real ns.
type TickNormalJitter struct {
	IterMean float64 // virtual ns per iteration (60 µs)
	TickSD   float64 // per-tick standard deviation (0.1)
}

// ServiceReal implements Jitter.
func (j TickNormalJitter) ServiceReal(k int, rng *stats.RNG) []float64 {
	out := make([]float64, k)
	sd := j.TickSD * math.Sqrt(j.IterMean)
	for i := range out {
		v := j.IterMean + sd*rng.NormFloat64()
		if v < 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}

// EmpiricalJitter resamples measured total execution times keyed by
// iteration count (the Fig. 4 methodology: 10,000 imported measurements of
// a real run). Scale converts measured ns to simulated ns so the mean per
// iteration matches the model's 60 µs.
type EmpiricalJitter struct {
	// Samples holds measured total service times (ns) per iteration count.
	Samples map[int][]float64
	// Scale multiplies each sample (use 60000/fittedCoefficient to recenter
	// measurements on the simulation's 60 µs/iteration).
	Scale float64
	// Fallback supplies durations for iteration counts with no samples.
	Fallback Jitter
}

// ServiceReal implements Jitter.
func (j EmpiricalJitter) ServiceReal(k int, rng *stats.RNG) []float64 {
	obs := j.Samples[k]
	if len(obs) == 0 {
		if j.Fallback != nil {
			return j.Fallback.ServiceReal(k, rng)
		}
		out := make([]float64, k)
		for i := range out {
			out[i] = 60_000 * j.Scale
		}
		return out
	}
	total := obs[rng.Intn(len(obs))] * j.Scale
	out := make([]float64, k)
	per := total / float64(k)
	for i := range out {
		out[i] = per
	}
	return out
}

// Params configures one simulation run. Zero fields take the paper's
// defaults (DefaultParams).
type Params struct {
	Mode Mode
	Seed uint64
	// Duration is the simulated real time.
	Duration time.Duration
	// ArrivalMean is the Poisson inter-arrival mean per sender (1 ms).
	ArrivalMean time.Duration
	// Iterations draws the per-message iteration count (U{1..19}).
	Iterations stats.UniformInt
	// IterVirtual is the true mean real cost per iteration (60 µs).
	IterVirtual time.Duration
	// Coef is the smart estimator's virtual cost per iteration in ns
	// (Fig. 4 sweeps it); ignored when DumbEstimate is set.
	Coef float64
	// DumbEstimate, when positive, replaces the smart estimator with a
	// constant per-message estimate (the paper's 600 µs dumb estimator).
	DumbEstimate time.Duration
	// MergerService is the merger's fixed service time (400 µs).
	MergerService time.Duration
	// ProbeDelay is the one-way curiosity-probe transit time. The paper
	// charges 20 µs per probe ("probably an over-estimate"); the default
	// models that as a 20 µs round trip (10 µs per leg).
	ProbeDelay time.Duration
	// ReprobeAfter is how long a still-blocked merger waits after an
	// unhelpful reply before probing again.
	ReprobeAfter time.Duration
	// Jitter maps virtual service to real durations.
	Jitter Jitter
	// WarmupFraction of messages excluded from latency statistics.
	WarmupFraction float64
	// ArrivalMeans, when non-nil, overrides ArrivalMean per sender —
	// the asymmetric-rate setting of the bias study (§II.G.1).
	ArrivalMeans [2]time.Duration
	// Bias, per sender, enables hyper-aggressive silence: the sender
	// promises silence Bias ticks beyond its knowledge and floors its own
	// future output virtual times past every promise it made (the "bias
	// algorithm"). Zero disables.
	Bias [2]time.Duration
	// Registry, when non-nil, receives the merger's per-wire labeled
	// metrics (delivered / probes / out-of-order / duplicates counters and
	// the pessimism-delay histogram) under the same metric names the live
	// engines export, so harnesses can print wire tables from the registry
	// instead of keeping ad-hoc counters.
	Registry *trace.Registry
}

// DefaultParams returns the paper's §III.A configuration.
func DefaultParams() Params {
	return Params{
		Mode:           Deterministic,
		Seed:           1,
		Duration:       10 * time.Second,
		ArrivalMean:    time.Millisecond,
		Iterations:     stats.UniformInt{Lo: 1, Hi: 19},
		IterVirtual:    60 * time.Microsecond,
		Coef:           60_000,
		MergerService:  400 * time.Microsecond,
		ProbeDelay:     10 * time.Microsecond,
		ReprobeAfter:   40 * time.Microsecond,
		WarmupFraction: 0.05,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Mode == 0 {
		p.Mode = d.Mode
	}
	if p.Duration <= 0 {
		p.Duration = d.Duration
	}
	if p.ArrivalMean <= 0 {
		p.ArrivalMean = d.ArrivalMean
	}
	if p.Iterations == (stats.UniformInt{}) {
		p.Iterations = d.Iterations
	}
	if p.IterVirtual <= 0 {
		p.IterVirtual = d.IterVirtual
	}
	if p.Coef <= 0 {
		p.Coef = d.Coef
	}
	if p.MergerService <= 0 {
		p.MergerService = d.MergerService
	}
	if p.ProbeDelay <= 0 {
		p.ProbeDelay = d.ProbeDelay
	}
	if p.ReprobeAfter <= 0 {
		p.ReprobeAfter = d.ReprobeAfter
	}
	if p.Jitter == nil {
		p.Jitter = TickNormalJitter{IterMean: float64(p.IterVirtual.Nanoseconds()), TickSD: 0.1}
	}
	if p.WarmupFraction <= 0 {
		p.WarmupFraction = d.WarmupFraction
	}
	return p
}

// Result aggregates one run's measurements.
type Result struct {
	Mode           Mode
	Messages       int
	AvgLatency     time.Duration
	P95Latency     time.Duration
	Probes         int
	OutOfOrder     int
	PessimismTotal time.Duration
	PessimismCount int
	// FinalBacklog is the number of messages still queued at the end (a
	// growing backlog signals instability for the throughput study).
	FinalBacklog int
	// Blame counts, per sender wire, the pessimism episodes whose last
	// holdout was that wire's silence frontier; BlameWait accumulates the
	// real time the merger spent blocked on it.
	Blame     [2]int
	BlameWait [2]time.Duration
}

// AvgPessimism returns the mean pessimism delay per delivered message.
func (r Result) AvgPessimism() time.Duration {
	if r.Messages == 0 {
		return 0
	}
	return r.PessimismTotal / time.Duration(r.Messages)
}

// ProbesPerMessage returns the curiosity-probe rate.
func (r Result) ProbesPerMessage() float64 {
	if r.Messages == 0 {
		return 0
	}
	return float64(r.Probes) / float64(r.Messages)
}

// OutOfOrderFraction returns the share of messages delivered out of
// real-time order.
func (r Result) OutOfOrderFraction() float64 {
	if r.Messages == 0 {
		return 0
	}
	return float64(r.OutOfOrder) / float64(r.Messages)
}
