package transport

import (
	"math/rand"
	"testing"
	"time"
)

// TestBackoffCappedExponentialWithJitter asserts the redial schedule's
// shape: each consecutive failure doubles the pre-jitter delay up to the
// cap, every emitted delay is jittered within [delay/2, delay), and a
// reset returns to the base.
func TestBackoffCappedExponentialWithJitter(t *testing.T) {
	b := &Backoff{
		Base: 10 * time.Millisecond,
		Max:  80 * time.Millisecond,
		Rand: rand.New(rand.NewSource(42)),
	}
	wantCeil := []time.Duration{ // pre-jitter: 10, 20, 40, 80, 80, 80 ms
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, ceil := range wantCeil {
		d := b.Next()
		if d < ceil/2 || d >= ceil {
			t.Fatalf("attempt %d: delay %v outside jitter window [%v, %v)", i, d, ceil/2, ceil)
		}
	}
	// Jitter actually varies: a run of identical delays would mean the
	// jitter is dead and redials thunder in lockstep.
	b2 := &Backoff{Base: 10 * time.Millisecond, Max: 10 * time.Millisecond, Rand: rand.New(rand.NewSource(7))}
	seen := map[time.Duration]bool{}
	for i := 0; i < 16; i++ {
		seen[b2.Next()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("16 capped delays produced %d distinct values; jitter missing", len(seen))
	}

	b.Reset()
	if d := b.Next(); d >= 10*time.Millisecond {
		t.Fatalf("post-reset delay %v, want < base (back to first step)", d)
	}
}

func TestBackoffDefaultsAndMonotoneCap(t *testing.T) {
	b := &Backoff{Base: time.Millisecond} // Max defaults to 64×Base
	var last time.Duration
	for i := 0; i < 20; i++ {
		d := b.Next()
		if d >= 64*time.Millisecond {
			t.Fatalf("attempt %d: delay %v escaped default cap", i, d)
		}
		last = d
	}
	if last < 16*time.Millisecond {
		t.Fatalf("after 20 failures delay %v still near base; growth missing", last)
	}
}

// TestBreakerLifecycle walks the closed → open → half-open → closed loop
// and checks the re-probe guarantee (an open breaker always half-opens).
func TestBreakerLifecycle(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: 20 * time.Millisecond}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	// Failures below the threshold keep it closed.
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("breaker opened below threshold")
	}
	// The threshold-th failure opens it; dials are suppressed.
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker still allowing dials after threshold failures")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	// Cooldown elapses → half-open admits exactly one probe.
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker never half-opened; peer could not rejoin")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// A failed probe re-opens immediately (no threshold count).
	b.Failure()
	if b.Allow() {
		t.Fatal("failed half-open probe left breaker admitting dials")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// Next cooldown, successful probe closes it.
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker did not re-probe after second cooldown")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after success = %v, want closed", got)
	}
	// Success reset the failure count: two failures stay closed again.
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("failure count not reset by success")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	if BreakerClosed.String() != "closed" || BreakerOpen.String() != "open" || BreakerHalfOpen.String() != "half-open" {
		t.Fatal("breaker state strings wrong")
	}
}
