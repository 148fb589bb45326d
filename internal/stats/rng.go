// Package stats provides the deterministic randomness and statistical
// fitting used across the TART runtime and its experiment harnesses: a
// splittable PRNG for reproducible component randomness, the descriptive
// statistics of the Figure-2 measurement, and ordinary-least-squares
// regression for estimator calibration (the paper's Equation (1)/(2) fit).
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded through splitmix64). It is serializable — its entire
// state is the four exported-via-State words — so component randomness
// survives checkpoint/restore, which is required for deterministic replay.
//
// RNG is not safe for concurrent use.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state (probability ~2^-256, but cheap to guard).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Split derives an independent generator from r's stream, advancing r.
// Used to give each component its own deterministic stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// State returns the generator's internal state for checkpointing.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a previously captured state.
func (r *RNG) SetState(s [4]uint64) { r.s = s }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform random int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(1.0 - r.Float64())
}
