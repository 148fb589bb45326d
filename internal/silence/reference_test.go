package silence

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/msg"
	"repro/internal/stats"
	"repro/internal/vt"
)

// refGovernor is the governor as it was before views became pull-based:
// standing curiosity in a map, and an OnAdvance that is handed a prebuilt
// view of every output wire and sorts the wire set on every call. It is
// kept as the oracle the production Governor must agree with step for step.
type refGovernor struct {
	cfg       Config
	promised  map[msg.WireID]vt.Time
	curiosity map[msg.WireID]vt.Time
	floor     vt.Time
	events    []string
}

func newRefGovernor(cfg Config) *refGovernor {
	return &refGovernor{
		cfg:       cfg.withDefaults(),
		promised:  make(map[msg.WireID]vt.Time),
		curiosity: make(map[msg.WireID]vt.Time),
		floor:     vt.Never,
	}
}

func (g *refGovernor) traceEvent(event string, w msg.WireID, target vt.Time) {
	g.events = append(g.events, fmt.Sprint(event, w, target))
}

func (g *refGovernor) promiseFor(view View) vt.Time {
	p := view.Promise()
	if g.cfg.Strategy == HyperAggressive && g.cfg.Bias > 0 {
		p = p.Add(g.cfg.Bias)
		if p > g.floor {
			g.floor = p
		}
	}
	return p
}

func (g *refGovernor) OnProbe(w msg.WireID, target vt.Time, view View) *Promise {
	p := g.promiseFor(view)
	if p < target {
		if cur, ok := g.curiosity[w]; !ok || target > cur {
			g.curiosity[w] = target
			g.traceEvent(TraceStandingCuriosity, w, target)
		}
	}
	if p > g.promised[w] {
		g.promised[w] = p
	}
	return &Promise{Wire: w, Through: g.promised[w]}
}

func (g *refGovernor) OnAdvance(views map[msg.WireID]View) []Promise {
	var out []Promise
	switch g.cfg.Strategy {
	case Lazy:
		return nil
	case Curiosity:
		for _, w := range refSortedWires(g.curiosity) {
			target := g.curiosity[w]
			view, ok := views[w]
			if !ok {
				continue
			}
			p := g.promiseFor(view)
			if p <= g.promised[w] {
				continue
			}
			g.promised[w] = p
			out = append(out, Promise{Wire: w, Through: p})
			if p >= target {
				delete(g.curiosity, w)
				g.traceEvent(TraceCuriositySatisfied, w, target)
			}
		}
	case Aggressive, HyperAggressive:
		for _, w := range refSortedWires(views) {
			view := views[w]
			p := g.promiseFor(view)
			prev, promised := g.promised[w]
			target, curious := g.curiosity[w]
			due := !promised || p >= prev.Add(g.cfg.Stride)
			if curious && p > prev {
				due = true
			}
			if !due || (promised && p <= prev) {
				continue
			}
			g.promised[w] = p
			out = append(out, Promise{Wire: w, Through: p})
			if curious && p >= target {
				delete(g.curiosity, w)
				g.traceEvent(TraceCuriositySatisfied, w, target)
			}
		}
	}
	return out
}

func (g *refGovernor) NoteData(w msg.WireID, t vt.Time) {
	if t > g.promised[w] {
		g.promised[w] = t
	}
	if target, ok := g.curiosity[w]; ok && g.promised[w] >= target {
		delete(g.curiosity, w)
		g.traceEvent(TraceCuriositySatisfied, w, target)
	}
}

func refSortedWires[V any](m map[msg.WireID]V) []msg.WireID {
	out := make([]msg.WireID, 0, len(m))
	for w := range m {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestGovernorMatchesReference drives the reference and two production
// governors — one through the OnAdvance(map) adapter, one through Advance
// with a reused scratch slice, as the scheduler calls it — with the same
// seeded random history and requires identical promises, trace events and
// observable state after every step.
func TestGovernorMatchesReference(t *testing.T) {
	configs := []Config{
		{Strategy: Lazy},
		{Strategy: Curiosity},
		{Strategy: Aggressive, Stride: 500},
		{Strategy: HyperAggressive, Stride: 500, Bias: 3000},
		{Strategy: HyperAggressive, Stride: 2000},
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		nWires := 1 + rng.Intn(8)
		// Non-contiguous wire IDs, and views for only some of them: the
		// scheduler has none for call-reply wires, which can still be probed.
		all := make([]msg.WireID, nWires)
		var viewed []msg.WireID
		for i := range all {
			all[i] = msg.WireID(3*i + 1)
			if i == 0 || rng.Intn(4) > 0 {
				viewed = append(viewed, all[i])
			}
		}
		start := configs[rng.Intn(len(configs))]
		ref := newRefGovernor(start)
		viaMap, viaPull := NewGovernor(start), NewGovernor(start)
		var mapEvents, pullEvents []string
		viaMap.SetTrace(func(e string, w msg.WireID, target vt.Time) {
			mapEvents = append(mapEvents, fmt.Sprint(e, w, target))
		})
		viaPull.SetTrace(func(e string, w msg.WireID, target vt.Time) {
			pullEvents = append(pullEvents, fmt.Sprint(e, w, target))
		})

		clock := vt.Time(0)
		lastSent := make(map[msg.WireID]vt.Time)
		view := func(w msg.WireID) View {
			ls, ok := lastSent[w]
			if !ok {
				ls = vt.Never
			}
			return View{Clock: clock, MinCost: 40, WireDelay: vt.Ticks(10 * int64(w)), LastSentVT: ls}
		}
		var scratch []Promise
		for step := 0; step < 400; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 2: // probe, sometimes for a target already covered
				w := all[rng.Intn(nWires)]
				target := clock.Add(vt.Ticks(rng.Intn(6000)) - 500)
				want := ref.OnProbe(w, target, view(w))
				if got := viaMap.OnProbe(w, target, view(w)); *got != *want {
					t.Fatalf("%s: adapter OnProbe = %+v, want %+v", where, *got, *want)
				}
				if got := viaPull.OnProbe(w, target, view(w)); *got != *want {
					t.Fatalf("%s: pull OnProbe = %+v, want %+v", where, *got, *want)
				}
			case op < 4: // data send
				w := all[rng.Intn(nWires)]
				stamp := clock.Add(vt.Ticks(50 + rng.Intn(300)))
				if floor := ref.floor; floor != vt.Never && stamp <= floor {
					stamp = floor.Add(1)
				}
				if ls, ok := lastSent[w]; ok && stamp <= ls {
					stamp = ls.Add(1)
				}
				lastSent[w] = stamp
				ref.NoteData(w, stamp)
				viaMap.NoteData(w, stamp)
				viaPull.NoteData(w, stamp)
			case op < 9: // clock advance
				clock = clock.Add(vt.Ticks(rng.Intn(1500)))
				views := make(mapViews, len(viewed))
				for _, w := range viewed {
					views[w] = view(w)
				}
				want := ref.OnAdvance(views)
				if got := viaMap.OnAdvance(views); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: adapter OnAdvance = %+v, want %+v", where, got, want)
				}
				scratch = viaPull.Advance(views, viewed, scratch[:0])
				if !slices.Equal(scratch, want) {
					t.Fatalf("%s: Advance = %+v, want %+v", where, scratch, want)
				}
			default: // strategy switch: SetConfig where allowed, else a logged fault
				next := configs[rng.Intn(len(configs))]
				if err := viaMap.SetConfig(next); err != nil {
					viaMap.ApplyFault(next)
					viaPull.ApplyFault(next)
				} else if err := viaPull.SetConfig(next); err != nil {
					t.Fatalf("%s: SetConfig accepted by one governor, rejected by the other: %v", where, err)
				}
				ref.cfg = next.withDefaults()
			}
			for _, g := range []*Governor{viaMap, viaPull} {
				if g.OutputFloor() != ref.floor {
					t.Fatalf("%s: OutputFloor = %v, want %v", where, g.OutputFloor(), ref.floor)
				}
				for _, w := range all {
					if got, want := g.Promised(w), ref.promised[w]; got != want {
						t.Fatalf("%s: Promised(%v) = %v, want %v", where, w, got, want)
					}
					wantT, wantOK := ref.curiosity[w]
					if gotT, gotOK := g.PendingCuriosity(w); gotT != wantT || gotOK != wantOK {
						t.Fatalf("%s: PendingCuriosity(%v) = %v,%v, want %v,%v", where, w, gotT, gotOK, wantT, wantOK)
					}
				}
			}
			if !slices.Equal(mapEvents, ref.events) || !slices.Equal(pullEvents, ref.events) {
				t.Fatalf("%s: trace events diverged:\n ref  %v\n map  %v\n pull %v", where, ref.events, mapEvents, pullEvents)
			}
		}
	}
}
