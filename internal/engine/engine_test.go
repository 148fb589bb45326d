package engine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/silence"
	"repro/internal/topo"
	"repro/internal/vt"
)

// wordCount is the paper's Code Body 1: counts word occurrences and emits,
// per sentence, the total number of times its words have been seen before.
// State lives in an exported field (transparent checkpointing).
type wordCount struct {
	Counts map[string]int
}

func newWordCount() *wordCount { return &wordCount{Counts: make(map[string]int)} }

func (w *wordCount) OnMessage(ctx *sched.Ctx, port string, payload any) (any, error) {
	words, _ := payload.([]string)
	count := 0
	for _, word := range words {
		count += w.Counts[word]
		w.Counts[word]++
	}
	return nil, ctx.Send("out", count)
}

// adder sums incoming counts and forwards the running total.
type adder struct {
	Total int
}

func (m *adder) OnMessage(ctx *sched.Ctx, port string, payload any) (any, error) {
	n, _ := payload.(int)
	m.Total += n
	return nil, ctx.Send("out", m.Total)
}

// sinkCollector accumulates sink deliveries.
type sinkCollector struct {
	mu   sync.Mutex
	envs []msg.Envelope
	ch   chan struct{}
}

func newSinkCollector() *sinkCollector {
	return &sinkCollector{ch: make(chan struct{}, 4096)}
}

func (s *sinkCollector) fn(env msg.Envelope) {
	s.mu.Lock()
	s.envs = append(s.envs, env)
	s.mu.Unlock()
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

func (s *sinkCollector) await(t *testing.T, n int, timeout time.Duration) []msg.Envelope {
	t.Helper()
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		if len(s.envs) >= n {
			out := append([]msg.Envelope(nil), s.envs...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-s.ch:
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			s.mu.Lock()
			got := len(s.envs)
			s.mu.Unlock()
			t.Fatalf("timed out: %d of %d sink messages", got, n)
		}
	}
}

// spec builds a ComponentSpec whose handler doubles as its state object.
func spec(h sched.Handler, cost vt.Ticks) ComponentSpec {
	return ComponentSpec{
		Handler: h,
		State:   h,
		Est:     estimator.Constant{C: cost},
		Silence: silence.Config{Strategy: silence.Curiosity},
		// Fast probing keeps single-process tests snappy.
		ProbeRetry: 5 * time.Millisecond,
	}
}

// fig1Topo builds the Figure-1 app, optionally splitting senders and
// merger across engines A and B.
func fig1Topo(t *testing.T, split bool) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	b.AddComponent("sender1")
	b.AddComponent("sender2")
	b.AddComponent("merger")
	b.AddSource("in1", "sender1", "in")
	b.AddSource("in2", "sender2", "in")
	b.Connect("sender1", "out", "merger", "s1")
	b.Connect("sender2", "out", "merger", "s2")
	b.AddSink("out", "merger", "out")
	if split {
		b.Place("sender1", "A")
		b.Place("sender2", "A")
		b.Place("merger", "B")
	} else {
		b.PlaceAll("A")
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func fig1Specs() map[string]ComponentSpec {
	return map[string]ComponentSpec{
		"sender1": spec(newWordCount(), 61_000),
		"sender2": spec(newWordCount(), 61_000),
		"merger":  spec(&adder{}, 400_000),
	}
}

func TestSingleEnginePipelineRealTime(t *testing.T) {
	tp := fig1Topo(t, false)
	sink := newSinkCollector()
	e, err := New(Config{
		Name:               "A",
		Topo:               tp,
		Components:         fig1Specs(),
		SourceSilenceEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	in1, err := e.Source("in1")
	if err != nil {
		t.Fatal(err)
	}
	in2, err := e.Source("in2")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if _, err := in1.Emit([]string{"the", "quick", "fox"}); err != nil {
			t.Fatal(err)
		}
		if _, err := in2.Emit([]string{"lazy", "dog"}); err != nil {
			t.Fatal(err)
		}
	}
	got := sink.await(t, 10, 10*time.Second)
	// VTs at the sink strictly increase; sequence numbers are 1..10.
	for i, env := range got[:10] {
		if env.Seq != uint64(i+1) {
			t.Errorf("sink seq[%d] = %d", i, env.Seq)
		}
		if i > 0 && env.VT <= got[i-1].VT {
			t.Errorf("sink VT not increasing at %d: %v then %v", i, got[i-1].VT, env.VT)
		}
	}
	// The merger's final total is the sum of all emitted counts; with each
	// sender seeing its own sentence 5 times, pairwise-distinct words:
	// sender1 emits 0,3,6,9,12 and sender2 emits 0,2,4,6,8 → total 50.
	last := got[9].Payload.(int)
	if last != 50 {
		t.Errorf("final merged total = %d, want 50", last)
	}
}

func TestEngineValidation(t *testing.T) {
	tp := fig1Topo(t, false)
	if _, err := New(Config{Topo: tp}); err == nil {
		t.Error("missing name accepted")
	}
	if _, err := New(Config{Name: "A", Topo: tp}); err == nil {
		t.Error("missing specs accepted")
	}
	if _, err := New(Config{Name: "ghost", Topo: tp, Components: fig1Specs()}); err == nil {
		t.Error("engine with no placed components accepted")
	}
	// Missing transport for a split topology.
	tps := fig1Topo(t, true)
	e, err := New(Config{Name: "A", Topo: tps, Components: map[string]ComponentSpec{
		"sender1": spec(newWordCount(), 1000),
		"sender2": spec(newWordCount(), 1000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Error("split topology without transport started")
		e.Stop()
	}
}

func TestSourceValidation(t *testing.T) {
	tp := fig1Topo(t, false)
	e, err := New(Config{Name: "A", Topo: tp, Components: fig1Specs()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Source("nope"); err == nil {
		t.Error("unknown source accepted")
	}
	if err := e.Sink("nope", func(msg.Envelope) {}); err == nil {
		t.Error("unknown sink accepted")
	}

	src, err := e.Source("in1")
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "in1" || src.Wire() != tp.Sources()[0].Wire {
		t.Errorf("source identity wrong: %s %v", src.Name(), src.Wire())
	}
	// EmitAt must be monotone and respect promises.
	if err := src.EmitAt(1000, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := src.EmitAt(1000, []string{"b"}); err == nil {
		t.Error("non-increasing EmitAt accepted")
	}
	src.Quiesce(5000)
	if err := src.EmitAt(4000, []string{"c"}); err == nil {
		t.Error("EmitAt under a silence promise accepted")
	}
	if err := src.EmitAt(6000, []string{"d"}); err != nil {
		t.Errorf("valid EmitAt rejected: %v", err)
	}
}

func TestStopIdempotentAndKill(t *testing.T) {
	tp := fig1Topo(t, false)
	e, err := New(Config{Name: "A", Topo: tp, Components: fig1Specs()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Error("double start accepted")
	}
	e.Stop()
	e.Stop()
	e.Kill()
}
