package topo

import (
	"strings"
	"testing"
)

// buildFig1 builds the paper's Figure 1 application: Sender1 and Sender2
// fan into Merger, with external inputs and one external output.
func buildFig1(t *testing.T) *Topology {
	t.Helper()
	b := NewBuilder()
	b.AddComponent("sender1")
	b.AddComponent("sender2")
	b.AddComponent("merger")
	b.AddSource("in1", "sender1", "in")
	b.AddSource("in2", "sender2", "in")
	b.Connect("sender1", "out", "merger", "in")
	b.Connect("sender2", "out", "merger", "in")
	b.AddSink("out", "merger", "out")
	b.PlaceAll("engine0")
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func TestBuildFig1(t *testing.T) {
	topo := buildFig1(t)
	if got := len(topo.Components()); got != 3 {
		t.Fatalf("components = %d, want 3", got)
	}
	merger, ok := topo.ComponentByName("merger")
	if !ok {
		t.Fatal("merger not found")
	}
	if got := len(merger.Inputs); got != 2 {
		t.Errorf("merger inputs = %d, want 2", got)
	}
	s1, _ := topo.ComponentByName("sender1")
	if got := len(s1.Inputs); got != 1 {
		t.Errorf("sender1 inputs = %d, want 1", got)
	}
	if _, ok := s1.Outputs["out"]; !ok {
		t.Error("sender1 missing output port")
	}
	// 2 sources + 2 sends + 1 sink = 5 wires.
	if got := len(topo.Wires()); got != 5 {
		t.Errorf("wires = %d, want 5", got)
	}
	if got := len(topo.Sources()); got != 2 {
		t.Errorf("sources = %d, want 2", got)
	}
	if got := len(topo.Sinks()); got != 1 {
		t.Errorf("sinks = %d, want 1", got)
	}
	if got := topo.Engines(); len(got) != 1 || got[0] != "engine0" {
		t.Errorf("engines = %v", got)
	}
}

func TestWireIDsDeterministic(t *testing.T) {
	a := buildFig1(t)
	b := buildFig1(t)
	for i, w := range a.Wires() {
		w2 := b.Wires()[i]
		if w.ID != w2.ID || w.Kind != w2.Kind || w.From != w2.From || w.To != w2.To {
			t.Fatalf("wire %d differs between identical builds: %+v vs %+v", i, w, w2)
		}
	}
}

func TestSenderWiresOrderedBeforeEachOther(t *testing.T) {
	// The tie-break rule depends on wiring order: sender1's wire to merger
	// was connected first, so it must have the lower ID.
	topo := buildFig1(t)
	s1, _ := topo.ComponentByName("sender1")
	s2, _ := topo.ComponentByName("sender2")
	if s1.Outputs["out"] >= s2.Outputs["out"] {
		t.Errorf("sender1 wire %d should precede sender2 wire %d",
			s1.Outputs["out"], s2.Outputs["out"])
	}
}

func TestCallWiring(t *testing.T) {
	b := NewBuilder()
	b.AddComponent("client")
	b.AddComponent("server")
	b.AddSource("in", "client", "in")
	b.ConnectCall("client", "lookup", "server", "req")
	b.AddSink("out", "client", "out")
	// "out" port is unwired output via sink; fine.
	b.PlaceAll("e0")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	client, _ := topo.ComponentByName("client")
	server, _ := topo.ComponentByName("server")

	reqID, ok := client.Outputs["lookup"]
	if !ok {
		t.Fatal("client missing call port")
	}
	req := topo.Wire(reqID)
	if req.Kind != WireCallRequest {
		t.Errorf("request wire kind = %v", req.Kind)
	}
	if req.Peer < 0 {
		t.Fatal("request wire has no peer")
	}
	rep := topo.Wire(req.Peer)
	if rep.Kind != WireCallReply || rep.Peer != req.ID {
		t.Errorf("reply wire not paired: %+v", rep)
	}
	if len(server.Inputs) != 1 || server.Inputs[0] != req.ID {
		t.Errorf("server inputs = %v", server.Inputs)
	}
	if len(client.ReplyInputs) != 1 || client.ReplyInputs[0] != rep.ID {
		t.Errorf("client reply inputs = %v", client.ReplyInputs)
	}
}

func TestCallCycleRejected(t *testing.T) {
	b := NewBuilder()
	b.AddComponent("a")
	b.AddComponent("b")
	b.AddSource("in", "a", "in")
	b.ConnectCall("a", "callB", "b", "in")
	b.ConnectCall("b", "callA", "a", "in2")
	b.PlaceAll("e0")
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "call cycle") {
		t.Errorf("expected call cycle error, got %v", err)
	}
}

func TestSelfCallRejected(t *testing.T) {
	b := NewBuilder()
	b.AddComponent("a")
	b.AddSource("in", "a", "in")
	b.ConnectCall("a", "self", "a", "loop")
	b.PlaceAll("e0")
	if _, err := b.Build(); err == nil {
		t.Error("expected self-call cycle error")
	}
}

func TestSendCycleAllowed(t *testing.T) {
	// One-way send cycles are legal (feedback loops); only call cycles
	// deadlock.
	b := NewBuilder()
	b.AddComponent("a")
	b.AddComponent("b")
	b.AddSource("in", "a", "in")
	b.Connect("a", "toB", "b", "in")
	b.Connect("b", "toA", "a", "fb")
	b.PlaceAll("e0")
	if _, err := b.Build(); err != nil {
		t.Errorf("send cycle should be allowed: %v", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name    string
		setup   func(b *Builder)
		wantSub string
	}{
		{
			name:    "duplicate component",
			setup:   func(b *Builder) { b.AddComponent("x"); b.AddComponent("x") },
			wantSub: "duplicate component",
		},
		{
			name:    "empty component name",
			setup:   func(b *Builder) { b.AddComponent("") },
			wantSub: "must not be empty",
		},
		{
			name:    "unknown component in connect",
			setup:   func(b *Builder) { b.AddComponent("x"); b.Connect("x", "o", "ghost", "i") },
			wantSub: `unknown component "ghost"`,
		},
		{
			name: "double-wired output port",
			setup: func(b *Builder) {
				b.AddComponent("x")
				b.AddComponent("y")
				b.Connect("x", "o", "y", "i")
				b.Connect("x", "o", "y", "i2")
			},
			wantSub: "wired twice",
		},
		{
			name:    "duplicate source",
			setup:   func(b *Builder) { b.AddComponent("x"); b.AddSource("s", "x", "i"); b.AddSource("s", "x", "j") },
			wantSub: "duplicate source",
		},
		{
			name: "duplicate sink",
			setup: func(b *Builder) {
				b.AddComponent("x")
				b.AddSource("s", "x", "i")
				b.AddSink("k", "x", "o")
				b.AddSink("k", "x", "o2")
			},
			wantSub: "duplicate sink",
		},
		{
			name:    "empty engine",
			setup:   func(b *Builder) { b.AddComponent("x"); b.AddSource("s", "x", "i"); b.Place("x", "") },
			wantSub: "empty engine",
		},
		{
			name:    "unplaced component",
			setup:   func(b *Builder) { b.AddComponent("x"); b.AddSource("s", "x", "i") },
			wantSub: "not placed",
		},
		{
			name:    "no components",
			setup:   func(b *Builder) {},
			wantSub: "no components",
		},
		{
			name:    "no sources",
			setup:   func(b *Builder) { b.AddComponent("x"); b.PlaceAll("e") },
			wantSub: "no external sources",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder()
			tt.setup(b)
			_, err := b.Build()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestDelaysAndLocality(t *testing.T) {
	b := NewBuilder()
	b.AddComponent("s1")
	b.AddComponent("s2")
	b.AddComponent("m")
	b.AddSource("in1", "s1", "in")
	b.AddSource("in2", "s2", "in")
	b.Connect("s1", "out", "m", "in")
	b.Connect("s2", "out", "m", "in")
	b.Place("s1", "A")
	b.Place("s2", "A")
	b.Place("m", "B")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := topo.ComponentByName("s1")
	w1 := topo.Wire(s1.Outputs["out"])
	if topo.IsLocal(w1.ID) {
		t.Error("cross-engine wire reported local")
	}
	if w1.Delay != DefaultRemoteDelay {
		t.Errorf("remote default delay = %v", w1.Delay)
	}
	// Source wires are local.
	src, _ := topo.SourceByName("in1")
	if !topo.IsLocal(src.Wire) {
		t.Error("source wire should be local")
	}
	if topo.Wire(src.Wire).Delay != DefaultLocalDelay {
		t.Errorf("source delay = %v", topo.Wire(src.Wire).Delay)
	}
	if got := topo.Engines(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("engines = %v", got)
	}
	if got := topo.ComponentsOn("A"); len(got) != 2 {
		t.Errorf("componentsOn(A) = %v", got)
	}
	if topo.EngineOf(s1.ID) != "A" || topo.EngineOf(External) != "" {
		t.Error("EngineOf wrong")
	}
}

func TestLookupsAndAccessors(t *testing.T) {
	topo := buildFig1(t)
	if _, ok := topo.ComponentByName("ghost"); ok {
		t.Error("ghost component found")
	}
	if _, ok := topo.SourceByName("ghost"); ok {
		t.Error("ghost source found")
	}
	if _, ok := topo.SinkByName("ghost"); ok {
		t.Error("ghost sink found")
	}
	src, ok := topo.SourceByName("in1")
	if !ok {
		t.Fatal("in1 not found")
	}
	if topo.Wire(src.Wire).Kind != WireSource {
		t.Error("source wire kind wrong")
	}
	sink, _ := topo.SinkByName("out")
	if topo.Wire(sink.Wire).Kind != WireSink {
		t.Error("sink wire kind wrong")
	}
	m, _ := topo.ComponentByName("merger")
	if topo.Component(m.ID) != m {
		t.Error("Component(ID) lookup wrong")
	}
}

func TestWireKindString(t *testing.T) {
	kinds := map[WireKind]string{
		WireSend:        "send",
		WireCallRequest: "call-request",
		WireCallReply:   "call-reply",
		WireSource:      "source",
		WireSink:        "sink",
		WireKind(9):     "wirekind(9)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int8(k), got, want)
		}
	}
}

func TestCallChainAcyclicAccepted(t *testing.T) {
	// a calls b, b calls c: a DAG, allowed.
	b := NewBuilder()
	b.AddComponent("a")
	b.AddComponent("b")
	b.AddComponent("c")
	b.AddSource("in", "a", "in")
	b.ConnectCall("a", "cb", "b", "in")
	b.ConnectCall("b", "cc", "c", "in")
	b.PlaceAll("e0")
	if _, err := b.Build(); err != nil {
		t.Errorf("acyclic call chain rejected: %v", err)
	}
}

func TestReplyWireDelayFollowsRequest(t *testing.T) {
	b := NewBuilder()
	b.AddComponent("a")
	b.AddComponent("b")
	b.AddSource("in", "a", "in")
	b.ConnectCall("a", "cb", "b", "in")
	b.Place("a", "e0")
	b.Place("b", "e1")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := topo.ComponentByName("a")
	req := topo.Wire(a.Outputs["cb"])
	rep := topo.Wire(req.Peer)
	if req.Delay != DefaultRemoteDelay || rep.Delay != DefaultRemoteDelay {
		t.Errorf("cross-engine call delays = %v/%v, want %v both ways", req.Delay, rep.Delay, DefaultRemoteDelay)
	}
}
