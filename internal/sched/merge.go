package sched

import (
	"sort"

	"repro/internal/msg"
	"repro/internal/vt"
)

// This file implements the scheduler's merge index: two indexed binary
// min-heaps over the component's input wires that make candidate selection,
// the deliverability check, and the silence-frontier computation O(log W)
// instead of a linear rescan of every wire per delivery.
//
//   - The "heads" heap holds every wire with at least one queued message,
//     keyed by (head VT, wire ID). Its top is the delivery candidate — the
//     exact message the reference linear scan would pick, because per-wire
//     virtual times are strictly increasing, so each wire is represented by
//     its head and the delivery order (VT, wire ID, seq) across distinct
//     wires reduces to (VT, wire ID).
//   - The "silent" heap holds every wire with an empty queue, keyed by
//     (watermark, wire ID). Its top is the laggard: the candidate is
//     deliverable iff that minimum watermark has reached the candidate's VT
//     (a wire with a queued head cannot hide an earlier message, so only
//     headless wires can block).
//
// Both heaps are maintained incrementally — on accept, pop, and watermark
// advance — via frontier.update, which reconciles a wire's membership and
// key after any mutation. Each inWire caches its heap slot (hpos) so a key
// change is a sift, not a rebuild.
//
// Determinism: the heap replaces only *how* the minimum is found, never
// *which* element is minimal. The ordering function is identical to the
// linear scan's it replaced (VT first, wire ID on ties); the property test
// in reference_test.go checks every answer against that scan, kept there as
// the oracle.

// Heap membership markers for inWire.hset.
const (
	fsNone int8 = iota
	fsHeads
	fsSilent
)

// frontier is the merge index over one scheduler's input wires.
type frontier struct {
	heads  []*inWire // wires with a queued head, min-keyed by (head VT, ID)
	silent []*inWire // headless wires, min-keyed by (watermark, ID)
}

// add registers a wire with the index. New wires have empty queues, so they
// start in the silent heap keyed by their (Never) watermark.
func (f *frontier) add(in *inWire) {
	in.hkey = in.watermark
	in.hset = fsSilent
	heapPush(&f.silent, in)
}

// update reconciles a wire's heap membership and key after its queue head
// or watermark changed. O(log W); a no-op when nothing relevant moved.
func (f *frontier) update(in *inWire) {
	if h := in.head(); h != nil {
		key := h.env.VT
		switch in.hset {
		case fsHeads:
			if key != in.hkey {
				in.hkey = key
				heapFix(f.heads, in)
			}
			return
		case fsSilent:
			heapRemove(&f.silent, in)
		}
		in.hkey = key
		in.hset = fsHeads
		heapPush(&f.heads, in)
		return
	}
	key := in.watermark
	switch in.hset {
	case fsSilent:
		if key != in.hkey {
			in.hkey = key
			heapFix(f.silent, in)
		}
		return
	case fsHeads:
		heapRemove(&f.heads, in)
	}
	in.hkey = key
	in.hset = fsSilent
	heapPush(&f.silent, in)
}

// candidate returns the wire holding the earliest queued message (by VT,
// tie-broken by wire ID), or nil if no message is queued anywhere.
func (f *frontier) candidate() *inWire {
	if len(f.heads) == 0 {
		return nil
	}
	return f.heads[0]
}

// minWatermark returns the smallest silence watermark among headless wires
// and whether any headless wire exists. When ok is false no wire can block
// a candidate.
func (f *frontier) minWatermark() (vt.Time, bool) {
	if len(f.silent) == 0 {
		return vt.Never, false
	}
	return f.silent[0].hkey, true
}

// bound returns the earliest virtual time at which a yet-unknown input
// message could still occur: the minimum over wires of (head VT if queued,
// else watermark+1, with an unknown watermark bounding at Zero). This is
// the value the component clock may deterministically advance to.
func (f *frontier) bound() vt.Time {
	b := vt.Max
	if len(f.heads) > 0 {
		b = f.heads[0].hkey
	}
	if len(f.silent) > 0 {
		sb := vt.Zero
		if wm := f.silent[0].hkey; wm != vt.Never {
			sb = wm.Add(1)
		}
		if sb < b {
			b = sb
		}
	}
	return b
}

// blockers returns, in ascending wire-ID order, the headless wires whose
// watermark has not reached t — the wires preventing delivery of a
// candidate at virtual time t. Only called on the blocked (slow) path.
func (f *frontier) blockers(t vt.Time) []msg.WireID {
	var out []msg.WireID
	for _, in := range f.silent {
		if in.watermark < t {
			out = append(out, in.w.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// heapLess orders wires by cached key, tie-broken by wire ID — the same
// deterministic order the reference linear scan uses.
func heapLess(a, b *inWire) bool {
	if a.hkey != b.hkey {
		return a.hkey < b.hkey
	}
	return a.w.ID < b.w.ID
}

func heapPush(h *[]*inWire, in *inWire) {
	*h = append(*h, in)
	in.hpos = len(*h) - 1
	heapUp(*h, in.hpos)
}

func heapRemove(h *[]*inWire, in *inWire) {
	s := *h
	i, n := in.hpos, len(s)-1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	in.hset = fsNone
	in.hpos = -1
	if i == n {
		return
	}
	s[i] = last
	last.hpos = i
	if !heapDown(s[:n], i) {
		heapUp(s[:n], i)
	}
}

// heapFix restores heap order after s[in.hpos]'s key changed in place.
func heapFix(s []*inWire, in *inWire) {
	if !heapDown(s, in.hpos) {
		heapUp(s, in.hpos)
	}
}

func heapUp(s []*inWire, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		s[i].hpos, s[parent].hpos = i, parent
		i = parent
	}
}

func heapDown(s []*inWire, i int) bool {
	moved := false
	n := len(s)
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && heapLess(s[r], s[kid]) {
			kid = r
		}
		if !heapLess(s[kid], s[i]) {
			break
		}
		s[i], s[kid] = s[kid], s[i]
		s[i].hpos, s[kid].hpos = i, kid
		i = kid
		moved = true
	}
	return moved
}
