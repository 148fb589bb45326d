package vt

import (
	"testing"
	"time"
)

func TestTimeAdd(t *testing.T) {
	tests := []struct {
		name string
		t    Time
		d    Ticks
		want Time
	}{
		{name: "simple", t: 100, d: 50, want: 150},
		{name: "zero span", t: 100, d: 0, want: 100},
		{name: "negative span", t: 100, d: -30, want: 70},
		{name: "never stays never", t: Never, d: 1000, want: Never},
		{name: "saturates at max", t: Max - 5, d: 10, want: Max},
		{name: "exactly max", t: Max - 10, d: 10, want: Max},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.t.Add(tt.d); got != tt.want {
				t.Errorf("Add(%v, %v) = %v, want %v", tt.t, tt.d, got, tt.want)
			}
		})
	}
}

func TestTimeSub(t *testing.T) {
	if got := Time(500).Sub(200); got != 300 {
		t.Errorf("Sub = %v, want 300", got)
	}
}

func TestTimeOrdering(t *testing.T) {
	if !Never.Before(Zero) {
		t.Error("Never should be before Zero")
	}
	if !Time(1).Before(2) {
		t.Error("1 should be before 2")
	}
	if !Time(2).After(1) {
		t.Error("2 should be after 1")
	}
	if Time(1).After(1) || Time(1).Before(1) {
		t.Error("1 is neither before nor after itself")
	}
}

func TestMinMax(t *testing.T) {
	if got := MaxOf(3, 5); got != 5 {
		t.Errorf("MaxOf = %v", got)
	}
	if got := MaxOf(5, 3); got != 5 {
		t.Errorf("MaxOf = %v", got)
	}
}

func TestDurationConversion(t *testing.T) {
	d := FromDuration(3 * time.Microsecond)
	if d != 3000 {
		t.Errorf("FromDuration = %v, want 3000", d)
	}
	if d.Duration() != 3*time.Microsecond {
		t.Errorf("Duration round-trip = %v", d.Duration())
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		t    Time
		want string
	}{
		{Never, "never"},
		{Max, "max"},
		{42, "vt(42)"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int64(tt.t), got, tt.want)
		}
	}
	if got := Ticks(7).String(); got != "7t" {
		t.Errorf("Ticks.String = %q", got)
	}
}
