package sched

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/msg"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/vt"
)

// refMerge is the merge as it was before the frontier's heaps: a linear
// scan over every input wire, in ascending wire-ID order, on each question.
// It is kept as the oracle the frontier must agree with exactly.
type refMerge []*inWire

// candidate is the wire holding the earliest queued message in delivery
// order (less), or nil when nothing is queued.
func (r refMerge) candidate() *inWire {
	var best *inWire
	for _, in := range r {
		if h := in.head(); h != nil && (best == nil || less(h.env, best.head().env)) {
			best = in
		}
	}
	return best
}

// less is the deterministic delivery order for messages: primarily by
// virtual time, tie-broken by wire ID, then by sequence number.
func less(a, b msg.Envelope) bool {
	if a.VT != b.VT {
		return a.VT < b.VT
	}
	if a.Wire != b.Wire {
		return a.Wire < b.Wire
	}
	return a.Seq < b.Seq
}

// bound is the earliest virtual time at which a yet-unknown input message
// could still occur: the minimum over wires of the head VT, or of
// watermark+1 (Zero for an unknown watermark) on a headless wire.
func (r refMerge) bound() vt.Time {
	b := vt.Max
	for _, in := range r {
		var h vt.Time
		switch {
		case in.head() != nil:
			h = in.head().env.VT
		case in.watermark == vt.Never:
			h = vt.Zero
		default:
			h = in.watermark.Add(1)
		}
		b = min(b, h)
	}
	return b
}

// minWatermark is the smallest watermark among headless wires, and whether
// there is a headless wire at all.
func (r refMerge) minWatermark() (vt.Time, bool) {
	wm, ok := vt.Never, false
	for _, in := range r {
		if in.head() == nil && (!ok || in.watermark < wm) {
			wm, ok = in.watermark, true
		}
	}
	return wm, ok
}

// blockers lists, in ascending wire-ID order, the headless wires whose
// watermark has not reached t.
func (r refMerge) blockers(t vt.Time) []msg.WireID {
	var out []msg.WireID
	for _, in := range r {
		if in.head() == nil && in.watermark < t {
			out = append(out, in.w.ID)
		}
	}
	return out
}

// TestHeapMergeMatchesReferenceMerge drives the frontier and the reference
// scan over the same inWire set through random accept, pop and
// watermark-advance steps on 1–256 wires, and after every step requires
// the same candidate, bound, minimum watermark and blockers. Virtual times
// sit on a coarse lattice so that head and watermark ties between wires —
// where only the wire-ID tie-break decides — are common.
func TestHeapMergeMatchesReferenceMerge(t *testing.T) {
	const (
		seeds = 100
		steps = 400
		grain = 500 // lattice spacing of every VT and watermark
	)
	// above returns a lattice VT strictly past t.
	above := func(rng *stats.RNG, t vt.Time) vt.Time {
		base := vt.Time(0)
		if t != vt.Never {
			base = t/grain*grain + grain
		}
		return base + vt.Time(rng.Int63n(3)*grain)
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := stats.NewRNG(seed * 977)
		n := 1 + rng.Intn(256)
		if seed%4 == 0 {
			n = 1 + rng.Intn(4) // narrow fan-in, where every step moves a heap top
		}
		ref := make(refMerge, n)
		for i := range ref {
			ref[i] = newInWire(&topo.Wire{ID: msg.WireID(i)})
		}
		// Add the wires to the frontier in a random order (an inside-out
		// Fisher–Yates shuffle).
		order := make([]int, n)
		for i := range order {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], i
		}
		var f frontier
		for _, i := range order {
			f.add(ref[i])
		}
		arrival := uint64(0)
		for step := 0; step < steps; step++ {
			in := ref[rng.Intn(n)]
			var op string
			switch k := rng.Intn(10); {
			case k < 4: // accept data, sometimes out of order through holdback
				// Between steps nothing is held back, so the watermark is at
				// or past every queued VT and new data must come after it.
				if in.watermark >= vt.Max-4*grain {
					continue
				}
				v0 := above(rng, in.watermark)
				if rng.Intn(4) == 0 {
					v1 := above(rng, v0)
					arrival++
					in.accept(msg.NewData(in.w.ID, in.nextSeq+1, v1, nil), arrival, 0, 0)
					f.update(in)
					op = fmt.Sprintf("accept w%d seq %d@%d and seq %d@%d behind a gap", in.w.ID, in.nextSeq, v0, in.nextSeq+1, v1)
				} else {
					op = fmt.Sprintf("accept w%d seq %d@%d", in.w.ID, in.nextSeq, v0)
				}
				arrival++
				in.accept(msg.NewData(in.w.ID, in.nextSeq, v0, nil), arrival, 0, 0)
			case k < 7: // pop a head: the candidate's, or any wire's
				if rng.Intn(2) == 0 {
					if c := f.candidate(); c != nil {
						in = c
					}
				}
				if in.head() == nil {
					continue
				}
				op = fmt.Sprintf("pop w%d@%d", in.w.ID, in.head().env.VT)
				in.pop()
			default: // silence promise
				if in.watermark >= vt.Max-4*grain {
					continue
				}
				wm := above(rng, in.watermark)
				if rng.Intn(20) == 0 {
					wm = vt.Max // end of stream
				}
				op = fmt.Sprintf("silence w%d through %d", in.w.ID, wm)
				in.watermark = wm
			}
			f.update(in)

			where := func() string { return fmt.Sprintf("seed %d, %d wires, step %d (%s)", seed, n, step, op) }
			if got, want := f.candidate(), ref.candidate(); got != want {
				t.Fatalf("%s: candidate %s, reference %s", where(), wireOf(got), wireOf(want))
			}
			if got, want := f.bound(), ref.bound(); got != want {
				t.Fatalf("%s: bound %d, reference %d", where(), got, want)
			}
			gotWM, gotOK := f.minWatermark()
			wantWM, wantOK := ref.minWatermark()
			if gotWM != wantWM || gotOK != wantOK {
				t.Fatalf("%s: minWatermark (%d, %v), reference (%d, %v)", where(), gotWM, gotOK, wantWM, wantOK)
			}
			probes := []vt.Time{vt.Time(rng.Int63n(int64(step+2) * grain))}
			if c := ref.candidate(); c != nil {
				probes = append(probes, c.head().env.VT)
			}
			for _, at := range probes {
				if got, want := f.blockers(at), ref.blockers(at); !slices.Equal(got, want) {
					t.Fatalf("%s: blockers at %d %v, reference %v", where(), at, got, want)
				}
			}
		}
	}
}

func wireOf(in *inWire) string {
	if in == nil {
		return "none"
	}
	return fmt.Sprintf("w%d@%d", in.w.ID, in.head().env.VT)
}

func TestLessOrdering(t *testing.T) {
	a := msg.NewData(1, 1, 100, nil)
	b := msg.NewData(2, 1, 200, nil)
	if !less(a, b) || less(b, a) {
		t.Error("VT ordering wrong")
	}
	// Tie on VT: lower wire wins (the paper's deterministic tie-break).
	c := msg.NewData(1, 1, 100, nil)
	d := msg.NewData(2, 1, 100, nil)
	if !less(c, d) || less(d, c) {
		t.Error("wire tie-break wrong")
	}
	// Tie on VT and wire: lower seq wins.
	e := msg.NewData(1, 1, 100, nil)
	f := msg.NewData(1, 2, 100, nil)
	if !less(e, f) || less(f, e) {
		t.Error("seq tie-break wrong")
	}
}

// less must be a strict weak ordering: irreflexive, asymmetric, transitive.
func TestLessQuickStrictWeakOrdering(t *testing.T) {
	gen := func(seed int64) []msg.Envelope {
		out := make([]msg.Envelope, 12)
		s := uint64(seed)
		next := func() uint64 { s = s*6364136223846793005 + 1; return s >> 33 }
		for i := range out {
			out[i] = msg.NewData(msg.WireID(next()%3), next()%3, vt.Time(next()%4), nil)
		}
		return out
	}
	f := func(seed int64) bool {
		envs := gen(seed)
		for _, a := range envs {
			if less(a, a) {
				return false
			}
			for _, b := range envs {
				if less(a, b) && less(b, a) {
					return false
				}
				for _, c := range envs {
					if less(a, b) && less(b, c) && !less(a, c) {
						return false
					}
				}
			}
		}
		// Sorting with less must terminate and yield a non-decreasing order.
		sort.Slice(envs, func(i, j int) bool { return less(envs[i], envs[j]) })
		for i := 1; i < len(envs); i++ {
			if less(envs[i], envs[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
