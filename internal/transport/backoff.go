package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff computes capped exponential redial delays with jitter. Each
// consecutive failure doubles the delay up to Max; each delay is then
// jittered uniformly in [delay/2, delay) so a fleet of engines redialing
// the same dead peer does not thunder in lockstep. A success resets the
// schedule to Base.
//
// Backoff is not safe for concurrent use; each dial loop owns one.
type Backoff struct {
	// Base is the first retry delay (and the post-jitter minimum is
	// Base/2). Required > 0.
	Base time.Duration
	// Max caps the exponential growth. Defaults to 64×Base when zero.
	Max time.Duration
	// Rand supplies jitter; defaults to the global source. Tests inject a
	// seeded one.
	Rand *rand.Rand

	fails int
}

// Next returns the delay to wait before the next attempt and advances the
// schedule. The n-th consecutive failure (n starting at 0) yields a
// pre-jitter delay of min(Base·2ⁿ, Max).
func (b *Backoff) Next() time.Duration {
	max := b.Max
	if max <= 0 {
		max = 64 * b.Base
	}
	d := b.Base
	for i := 0; i < b.fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	b.fails++
	// Jitter into [d/2, d): full magnitude spread, never above the cap.
	half := d / 2
	if half <= 0 {
		return d
	}
	if b.Rand != nil {
		return half + time.Duration(b.Rand.Int63n(int64(half)))
	}
	return half + time.Duration(rand.Int63n(int64(half)))
}

// Reset returns the schedule to Base after a successful attempt.
func (b *Backoff) Reset() { b.fails = 0 }

// BreakerState is a dial circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: dials flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the peer has failed enough consecutive dials that
	// attempts are suppressed until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe dial is
	// allowed through. Success closes the breaker, failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a per-peer dial circuit breaker: after Threshold consecutive
// dial failures it opens and suppresses attempts for Cooldown, then
// half-opens for a single probe. It bounds the cost of a long-dead peer
// (no connection churn, no log spam at dial cadence) while guaranteeing
// the peer is re-probed forever — a cold-restarting engine must always be
// able to rejoin.
//
// Breaker is safe for concurrent use: the dial loop drives Allow/Success/
// Failure while metrics readers call State.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	// Defaults to 5 when zero.
	Threshold int
	// Cooldown is how long an open breaker suppresses dials before
	// half-opening. Defaults to 2s when zero.
	Cooldown time.Duration
	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
}

// State reports the breaker's current position, promoting an expired open
// period to half-open.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked(time.Now())
	return b.state
}

// Allow reports whether a dial attempt may proceed now. In the open state
// it returns false until the cooldown elapses; the attempt that finds the
// cooldown expired transitions the breaker to half-open and is admitted
// as the probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked(time.Now())
	return b.state != BreakerOpen
}

// Success records a successful dial, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.state = BreakerClosed
	b.mu.Unlock()
}

// Failure records a failed dial, opening the breaker at the threshold (or
// immediately when the half-open probe fails).
func (b *Breaker) Failure() {
	b.mu.Lock()
	threshold := b.Threshold
	if threshold <= 0 {
		threshold = 5
	}
	b.fails++
	open := b.state == BreakerHalfOpen || b.fails >= threshold
	if open && b.state != BreakerOpen {
		b.state = BreakerOpen
		b.openedAt = time.Now()
	}
	b.mu.Unlock()
}

// maybeHalfOpenLocked promotes an expired open period to half-open.
func (b *Breaker) maybeHalfOpenLocked(now time.Time) {
	cooldown := b.Cooldown
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	if b.state == BreakerOpen && now.Sub(b.openedAt) >= cooldown {
		b.state = BreakerHalfOpen
	}
}
