// Package vt implements virtual time for the TART deterministic runtime.
//
// Virtual time is discretized into ticks; one tick corresponds to one
// nanosecond of (approximated) real time. Every message in the system carries
// a virtual time, and schedulers deliver messages in strict virtual-time
// order, breaking ties deterministically by wire ID. Ticks that carry no
// message on a wire are "silent"; silence is communicated between components
// as watermarks ("silent through T").
package vt

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual time instant, measured in ticks since the epoch of the
// application run. One tick is one nanosecond of estimated real time.
type Time int64

// Ticks is a span of virtual time, measured in ticks. It is kept distinct
// from Time for the same reason time.Duration is distinct from time.Time.
type Ticks int64

const (
	// Zero is the epoch: the virtual time at which the application starts.
	Zero Time = 0

	// Never is a sentinel meaning "no virtual time" / "not yet known".
	// It sorts before every valid time.
	Never Time = -1

	// Max is the largest representable virtual time. A silence watermark of
	// Max means the sender promises it will never send again (end of stream).
	Max Time = math.MaxInt64
)

// Add advances t by d ticks. Adding to Never yields Never. The result
// saturates at Max instead of overflowing.
func (t Time) Add(d Ticks) Time {
	if t == Never {
		return Never
	}
	if d > 0 && t > Max-Time(d) {
		return Max
	}
	return t + Time(d)
}

// Sub returns the span t−u in ticks.
func (t Time) Sub(u Time) Ticks { return Ticks(t - u) }

// Before reports whether t is strictly earlier than u. Never is earlier than
// every valid time.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Duration converts a tick span to a wall-clock duration (1 tick = 1ns).
func (d Ticks) Duration() time.Duration { return time.Duration(d) }

// FromDuration converts a wall-clock duration to ticks (1 tick = 1ns).
func FromDuration(d time.Duration) Ticks { return Ticks(d.Nanoseconds()) }

// String renders the time as a tick count, or the sentinel names.
func (t Time) String() string {
	switch t {
	case Never:
		return "never"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("vt(%d)", int64(t))
	}
}

// String renders the span with its unit.
func (d Ticks) String() string { return fmt.Sprintf("%dt", int64(d)) }

// MaxOf returns the later of a and b.
func MaxOf(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
