package span

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/vt"
)

// TestScheduleQuantization checks that an epoch starts exactly at the
// boundary its proposer quantized, and that the schedule stays append-only:
// a repeated modulus or a boundary at or before the newest epoch's start
// appends nothing.
func TestScheduleQuantization(t *testing.T) {
	s := NewSchedule(64)
	if got := s.NAt(vt.Time(5)); got != 64 {
		t.Fatalf("base N=%d", got)
	}
	if !s.Propose(8, vt.Time(4000)) {
		t.Fatal("propose should switch")
	}
	if ep := s.Current(); ep.Start != vt.Time(4000) || ep.N != 8 {
		t.Fatalf("epoch %+v", ep)
	}
	if got := s.NAt(vt.Time(3999)); got != 64 {
		t.Fatalf("pre-boundary N=%d", got)
	}
	if got := s.NAt(vt.Time(4000)); got != 8 {
		t.Fatalf("post-boundary N=%d", got)
	}
	// Same modulus again: no new epoch.
	if s.Propose(8, vt.Time(5000)) {
		t.Fatal("same-N propose should be a no-op")
	}
	// A boundary that does not advance past the newest epoch is rejected.
	for _, start := range []vt.Time{0, 4000} {
		if s.Propose(16, start) {
			t.Fatalf("propose at %v must not rewrite history", start)
		}
	}
	if n := len(s.Epochs()); n != 2 {
		t.Fatalf("%d epochs, want 2", n)
	}
}

// TestDecideAtDeterministic verifies the core no-half-tracing contract: the
// decision is a pure function of (origin, VT, schedule), so a re-stamp
// during WAL replay — same origin, same logged VT, same append-only
// schedule — reproduces the original decision even after further epochs
// were appended.
func TestDecideAtDeterministic(t *testing.T) {
	sch := NewSchedule(4)
	c := NewCollector("e0", 0, 4)
	c.SetSchedule(sch)

	type stamp struct {
		o msg.OriginID
		t vt.Time
		d int8
	}
	var stamps []stamp
	for seq := uint64(1); seq <= 100; seq++ {
		o := msg.NewOrigin(3, seq)
		at := vt.Time(int64(seq) * 40)
		stamps = append(stamps, stamp{o, at, c.DecideAt(o, at)})
	}
	// Rate change mid-run at a boundary beyond the traffic frontier (the
	// controller quantizes past the max live engine clock), so it lands
	// beyond every already-stamped emission.
	sch.Propose(1, vt.Time(6000))
	for seq := uint64(101); seq <= 400; seq++ {
		o := msg.NewOrigin(3, seq)
		at := vt.Time(int64(seq) * 40)
		stamps = append(stamps, stamp{o, at, c.DecideAt(o, at)})
	}
	// Replay: recompute every decision from the logged (origin, VT).
	for _, s := range stamps {
		if got := c.DecideAt(s.o, s.t); got != s.d {
			t.Fatalf("origin %v at %v: replay decided %d, original %d", s.o, s.t, got, s.d)
		}
	}
	// Post-boundary emissions, 6000 onward, run at 1/1 and must all be
	// sampled.
	for _, s := range stamps {
		if s.t >= vt.Time(6000) && s.d != msg.TraceSampled {
			t.Fatalf("origin %v at %v unsampled under 1/1 epoch", s.o, s.t)
		}
	}
}

func TestDecidedResolution(t *testing.T) {
	c := NewCollector("e0", 0, 2)
	var nilC *Collector
	if nilC.Decided(msg.TraceSampled, msg.NewOrigin(1, 1)) {
		t.Fatal("nil collector must sample nothing")
	}
	o := msg.NewOrigin(1, 1)
	if !c.Decided(msg.TraceSampled, o) || c.Decided(msg.TraceUnsampled, o) {
		t.Fatal("explicit marks must win")
	}
	// Undecided falls back to the static hash rule.
	if c.Decided(0, o) != c.Sampled(o) {
		t.Fatal("undecided mark must fall back to Sampled")
	}
	if c.DecideAt(0, vt.Time(1)) != 0 {
		t.Fatal("zero origin stays undecided")
	}
}

func TestOriginHashMatchesSampler(t *testing.T) {
	c := NewCollector("e0", 0, 8)
	for seq := uint64(1); seq <= 64; seq++ {
		o := msg.NewOrigin(2, seq)
		if (OriginHash(o)%8 == 0) != c.Sampled(o) {
			t.Fatalf("OriginHash disagrees with Sampled for %v", o)
		}
	}
}
