package silence

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/vt"
)

func TestStrategyString(t *testing.T) {
	tests := []struct {
		s    Strategy
		want string
	}{
		{Lazy, "lazy"},
		{Curiosity, "curiosity"},
		{Aggressive, "aggressive"},
		{HyperAggressive, "hyper-aggressive"},
		{Strategy(9), "strategy(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestStrategyProbes(t *testing.T) {
	if Lazy.Probes() {
		t.Error("lazy should not probe")
	}
	for _, s := range []Strategy{Curiosity, Aggressive, HyperAggressive} {
		if !s.Probes() {
			t.Errorf("%v should probe", s)
		}
	}
}

func TestViewPromise(t *testing.T) {
	// Idle at clock 1000, min cost 60, wire delay 10:
	// silent through 1000 + 60 + 10 - 1 = 1069.
	v := View{Clock: 1000, MinCost: 60, WireDelay: 10, LastSentVT: vt.Never}
	if got := v.Promise(); got != 1069 {
		t.Errorf("Promise = %v, want 1069", got)
	}
	// A later last-sent data message dominates (promises never regress).
	v.LastSentVT = 5000
	if got := v.Promise(); got != 5000 {
		t.Errorf("Promise with later data = %v, want 5000", got)
	}
}

func TestGovernorOnProbe(t *testing.T) {
	g := NewGovernor(Config{Strategy: Curiosity})
	view := View{Clock: 1000, MinCost: 100, WireDelay: 1, LastSentVT: vt.Never}
	// Promise = 1000+100+1-1 = 1100; target 2000 not reachable yet.
	p := g.OnProbe(1, 2000, view)
	if p.Through != 1100 {
		t.Fatalf("OnProbe = %+v, want promise through 1100", p)
	}
	if _, ok := g.PendingCuriosity(1); !ok {
		t.Error("standing curiosity not recorded")
	}
	// Re-probing with no new knowledge re-sends the same promise (the
	// receiver probing again means the earlier answer was lost).
	if p := g.OnProbe(1, 2000, view); p.Through != 1100 {
		t.Errorf("duplicate probe answered %+v, want re-promise through 1100", p)
	}
	// Clock advance extends the promise; OnAdvance answers the standing
	// curiosity.
	view.Clock = 2500
	out := g.OnAdvance(map[msg.WireID]View{1: view})
	if len(out) != 1 || out[0].Through != 2600 {
		t.Fatalf("OnAdvance = %+v, want promise through 2600", out)
	}
	if _, ok := g.PendingCuriosity(1); ok {
		t.Error("satisfied curiosity not cleared")
	}
	// No further pushes without curiosity (Curiosity strategy is demand-driven).
	view.Clock = 9000
	if out := g.OnAdvance(map[msg.WireID]View{1: view}); out != nil {
		t.Errorf("curiosity strategy pushed unprompted: %+v", out)
	}
}

// TestGovernorNeed: the input horizon a standing target needs inverts the
// promise formula, takes the latest over the targets, and nets out a
// HyperAggressive bias; with no target standing there is nothing to need.
func TestGovernorNeed(t *testing.T) {
	views := mapViews{
		1: {Clock: 1000, MinCost: 100, WireDelay: 10, LastSentVT: vt.Never},
		2: {Clock: 1000, MinCost: 100, WireDelay: 50, LastSentVT: vt.Never},
	}
	g := NewGovernor(Config{Strategy: Curiosity})
	if _, ok := g.Need(views); ok {
		t.Fatal("Need with no standing target")
	}
	g.OnProbe(1, 5000, views[1])
	g.OnProbe(2, 5020, views[2])
	// Wire 1 needs 5000-100-10 = 4890, wire 2 5020-100-50 = 4870.
	if need, ok := g.Need(views); !ok || need != 4890 {
		t.Fatalf("Need = %v,%v, want 4890", need, ok)
	}
	// Inputs silent through the horizon make the clock 4891 and the
	// promise exactly the target.
	if p := (View{Clock: 4891, MinCost: 100, WireDelay: 10, LastSentVT: vt.Never}).Promise(); p != 5000 {
		t.Fatalf("promise at the horizon = %v, want the target 5000", p)
	}

	hyper := NewGovernor(Config{Strategy: HyperAggressive})
	hyper.OnProbe(1, 5_000_000, views[1])
	if need, ok := hyper.Need(views); !ok || need != 5_000_000-110-vt.Time(bias) {
		t.Fatalf("biased Need = %v,%v, want %v", need, ok, 5_000_000-110-vt.Time(bias))
	}
}

func TestGovernorProbeSatisfiedImmediately(t *testing.T) {
	g := NewGovernor(Config{Strategy: Curiosity})
	view := View{Clock: 5000, MinCost: 100, WireDelay: 1, LastSentVT: vt.Never}
	p := g.OnProbe(1, 3000, view) // target below current promise
	if p.Through < 3000 {
		t.Fatalf("OnProbe = %+v", p)
	}
	if _, ok := g.PendingCuriosity(1); ok {
		t.Error("curiosity recorded although target already satisfied")
	}
}

func TestGovernorLazyNeverPushes(t *testing.T) {
	g := NewGovernor(Config{Strategy: Lazy})
	views := map[msg.WireID]View{
		1: {Clock: 100000, MinCost: 10, WireDelay: 1, LastSentVT: vt.Never},
	}
	if out := g.OnAdvance(views); out != nil {
		t.Errorf("lazy pushed promises: %+v", out)
	}
}

func TestGovernorAggressivePushesOnStride(t *testing.T) {
	g := NewGovernor(Config{Strategy: Aggressive, Stride: 1000})
	mk := func(clock vt.Time) map[msg.WireID]View {
		return map[msg.WireID]View{
			1: {Clock: clock, MinCost: 10, WireDelay: 1, LastSentVT: vt.Never},
		}
	}
	out := g.OnAdvance(mk(100))
	if len(out) != 1 {
		t.Fatalf("first advance did not push: %+v", out)
	}
	first := out[0].Through
	// A small advance (less than the stride) is suppressed.
	if out := g.OnAdvance(mk(200)); out != nil {
		t.Errorf("sub-stride advance pushed: %+v", out)
	}
	// A stride-sized advance pushes again.
	out = g.OnAdvance(mk(100 + 1000))
	if len(out) != 1 || out[0].Through < first.Add(1000) {
		t.Fatalf("stride advance = %+v", out)
	}
}

func TestGovernorAggressiveAnswersCuriosityBelowStride(t *testing.T) {
	g := NewGovernor(Config{Strategy: Aggressive, Stride: 1_000_000})
	view := View{Clock: 100, MinCost: 10, WireDelay: 1, LastSentVT: vt.Never}
	g.OnProbe(1, 5000, view)
	// Even though the stride hasn't elapsed, the standing curiosity makes
	// small promise advances flow.
	view.Clock = 300
	out := g.OnAdvance(map[msg.WireID]View{1: view})
	if len(out) != 1 {
		t.Fatalf("aggressive governor ignored standing curiosity: %+v", out)
	}
}

func TestGovernorHyperBiasFloorsOutputs(t *testing.T) {
	g := NewGovernor(Config{Strategy: HyperAggressive, Stride: 1})
	if g.OutputFloor() != vt.Never {
		t.Error("fresh governor should not constrain outputs")
	}
	view := View{Clock: 1000, MinCost: 100, WireDelay: 1, LastSentVT: vt.Never}
	out := g.OnAdvance(map[msg.WireID]View{1: view})
	if len(out) != 1 {
		t.Fatal("hyper governor did not push")
	}
	base := view.Promise()
	if out[0].Through != base.Add(bias) {
		t.Errorf("biased promise = %v, want %v", out[0].Through, base.Add(bias))
	}
	if g.OutputFloor() != base.Add(bias) {
		t.Errorf("output floor = %v, want %v", g.OutputFloor(), base.Add(bias))
	}
}

func TestGovernorNoteData(t *testing.T) {
	g := NewGovernor(Config{Strategy: Curiosity})
	view := View{Clock: 100, MinCost: 10, WireDelay: 1, LastSentVT: vt.Never}
	g.OnProbe(1, 5000, view)
	// Sending a data message at VT 6000 implies silence through 6000 and
	// satisfies the standing curiosity.
	g.NoteData(1, 6000)
	if got := g.Promised(1); got != 6000 {
		t.Errorf("Promised = %v, want 6000", got)
	}
	if _, ok := g.PendingCuriosity(1); ok {
		t.Error("curiosity not cleared by data message")
	}
	// NoteData never regresses the promise.
	g.NoteData(1, 100)
	if got := g.Promised(1); got != 6000 {
		t.Errorf("Promised regressed to %v", got)
	}
}

func TestGovernorMultipleWiresSortedOutput(t *testing.T) {
	g := NewGovernor(Config{Strategy: Aggressive, Stride: 1})
	views := map[msg.WireID]View{
		3: {Clock: 100, MinCost: 10, WireDelay: 1, LastSentVT: vt.Never},
		1: {Clock: 100, MinCost: 10, WireDelay: 1, LastSentVT: vt.Never},
		2: {Clock: 100, MinCost: 10, WireDelay: 1, LastSentVT: vt.Never},
	}
	out := g.OnAdvance(views)
	if len(out) != 3 {
		t.Fatalf("pushed %d promises, want 3", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Wire < out[i-1].Wire {
			t.Errorf("promises not in wire order: %+v", out)
		}
	}
}

func TestSetConfigRules(t *testing.T) {
	for _, c := range []struct {
		name      string
		cur, next Config
		ok        bool
	}{
		// Mixing lazy/curiosity/aggressive freely is allowed (§II.G.4).
		{"lazy->curiosity", Config{Strategy: Lazy}, Config{Strategy: Curiosity}, true},
		{"curiosity->aggressive", Config{Strategy: Curiosity}, Config{Strategy: Aggressive, Stride: 10}, true},
		// Switching into hyper introduces its bias, which changes output VTs.
		{"aggressive->hyper", Config{Strategy: Aggressive}, Config{Strategy: HyperAggressive}, false},
		{"default->hyper", Config{}, Config{Strategy: HyperAggressive}, false},
		// Switching out of it removes the bias, likewise.
		{"hyper->curiosity", Config{Strategy: HyperAggressive}, Config{Strategy: Curiosity}, false},
		// Staying hyper keeps the bias (stride is free).
		{"hyper stride", Config{Strategy: HyperAggressive}, Config{Strategy: HyperAggressive, Stride: 7}, true},
	} {
		if err := CheckSwitch(c.cur, c.next); (err == nil) != c.ok {
			t.Errorf("%s: CheckSwitch = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	g := NewGovernor(Config{})
	if g.Strategy() != Curiosity {
		t.Errorf("default strategy = %v", g.Strategy())
	}
	cfg := Config{Strategy: Lazy}.withDefaults()
	if cfg.Stride != 100_000 {
		t.Errorf("default stride = %v", cfg.Stride)
	}
}
