package tart_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	tart "repro"
)

// counter is a word-count component with transparent (gob) state capture.
type counter struct {
	Counts map[string]int
}

func newCounter() *counter { return &counter{Counts: make(map[string]int)} }

func (c *counter) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	words, _ := payload.([]string)
	n := 0
	for _, w := range words {
		n += c.Counts[w]
		c.Counts[w]++
	}
	return nil, ctx.Send("out", n)
}

// totaler accumulates integers and emits the running total.
type totaler struct {
	Total int
}

func (t *totaler) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	t.Total += payload.(int)
	return nil, ctx.Send("out", t.Total)
}

// outputs collects sink deliveries.
type outputs struct {
	mu   sync.Mutex
	got  []tart.Output
	cond chan struct{}
}

func newOutputs() *outputs { return &outputs{cond: make(chan struct{}, 1024)} }

func (o *outputs) fn(out tart.Output) {
	o.mu.Lock()
	o.got = append(o.got, out)
	o.mu.Unlock()
	select {
	case o.cond <- struct{}{}:
	default:
	}
}

func (o *outputs) await(t *testing.T, n int) []tart.Output {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		o.mu.Lock()
		if len(o.got) >= n {
			cp := append([]tart.Output(nil), o.got...)
			o.mu.Unlock()
			return cp
		}
		o.mu.Unlock()
		select {
		case <-o.cond:
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			o.mu.Lock()
			defer o.mu.Unlock()
			t.Fatalf("timed out: %d of %d outputs", len(o.got), n)
		}
	}
}

// fig1App assembles the paper's Figure-1 application.
func fig1App(engines ...string) *tart.App {
	app := tart.NewApp()
	app.Register("sender1", newCounter(), tart.WithConstantCost(61*time.Microsecond))
	app.Register("sender2", newCounter(), tart.WithConstantCost(61*time.Microsecond))
	app.Register("merger", &totaler{}, tart.WithConstantCost(400*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	switch len(engines) {
	case 0:
		app.PlaceAll("main")
	case 1:
		app.PlaceAll(engines[0])
	default:
		app.Place("sender1", engines[0])
		app.Place("sender2", engines[0])
		app.Place("merger", engines[1])
	}
	return app
}

func TestQuickstartRealTime(t *testing.T) {
	out := newOutputs()
	cluster, err := tart.Launch(fig1App())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, err := cluster.Source("in1")
	if err != nil {
		t.Fatal(err)
	}
	in2, err := cluster.Source("in2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := in1.Emit([]string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
		if _, err := in2.Emit([]string{"c"}); err != nil {
			t.Fatal(err)
		}
	}
	got := out.await(t, 8)
	for i := 1; i < 8; i++ {
		if got[i].VT <= got[i-1].VT {
			t.Errorf("output VTs not increasing at %d", i)
		}
		if got[i].Seq != got[i-1].Seq+1 {
			t.Errorf("output seqs not consecutive at %d", i)
		}
	}
	// sender1 contributes 0,2,4,6; sender2 contributes 0,1,2,3 → total 18.
	if final := got[7].Payload.(int); final != 18 {
		t.Errorf("final total = %d, want 18", final)
	}
}

func TestDeterministicReplayAcrossFailover(t *testing.T) {
	out := newOutputs()
	app := fig1App()
	cluster, err := tart.Launch(app, tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")

	emit := func(i int) {
		if err := in1.EmitAt(tart.VirtualTime(i*1_000_000), []string{"x", "y"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(tart.VirtualTime(i*1_000_000+400_000), []string{"z"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		emit(i)
	}
	if err := in1.Quiesce(3_500_000); err != nil {
		t.Fatal(err)
	}
	if err := in2.Quiesce(3_500_000); err != nil {
		t.Fatal(err)
	}
	out.await(t, 6)
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		emit(i)
	}
	in1.Quiesce(7_000_000)
	in2.Quiesce(7_000_000)
	before := out.await(t, 12)

	// Crash and recover.
	if err := cluster.Fail("main"); err != nil {
		t.Fatal(err)
	}
	if _, err := in1.Emit("x"); !errors.Is(err, tart.ErrEngineDown) {
		t.Errorf("emit to failed engine: %v", err)
	}
	out2 := newOutputs()
	if err := cluster.Sink("out", out2.fn); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("main"); err != nil {
		t.Fatal(err)
	}
	in1.Quiesce(7_000_000)
	in2.Quiesce(7_000_000)

	after := out2.await(t, 6)
	if !reflect.DeepEqual(before[6:12], after[:6]) {
		t.Errorf("stutter differs:\n  want %+v\n  got  %+v", before[6:12], after[:6])
	}

	m, err := cluster.Metrics("main")
	if err != nil {
		t.Fatal(err)
	}
	if m.Failovers != 1 {
		t.Errorf("failovers = %d", m.Failovers)
	}
}

func TestDedupOutputsSuppressesStutter(t *testing.T) {
	var got []uint64
	fn := tart.DedupOutputs(func(o tart.Output) { got = append(got, o.Seq) })
	for _, s := range []uint64{1, 2, 3, 2, 3, 4} {
		fn(tart.Output{Seq: s})
	}
	want := []uint64{1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedup = %v, want %v", got, want)
	}
}

func TestTwoEngineClusterInproc(t *testing.T) {
	out := newOutputs()
	cluster, err := tart.Launch(fig1App("A", "B"),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if got := cluster.Engines(); len(got) != 2 {
		t.Fatalf("engines = %v", got)
	}
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	for i := 1; i <= 3; i++ {
		if err := in1.EmitAt(tart.VirtualTime(i*1_000_000), []string{"p"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(tart.VirtualTime(i*1_000_000+300_000), []string{"q"}); err != nil {
			t.Fatal(err)
		}
	}
	in1.Quiesce(5_000_000)
	in2.Quiesce(5_000_000)
	got := out.await(t, 6)
	for i := 1; i < 6; i++ {
		if got[i].VT <= got[i-1].VT {
			t.Errorf("VT order violated at %d", i)
		}
	}
}

func TestTwoEngineClusterTCP(t *testing.T) {
	out := newOutputs()
	cluster, err := tart.Launch(fig1App("A", "B"),
		tart.WithTCP(map[string]string{"A": freeLoopbackAddr(t), "B": freeLoopbackAddr(t)}),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	for i := 1; i <= 3; i++ {
		if err := in1.EmitAt(tart.VirtualTime(i*1_000_000), []string{"p"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(tart.VirtualTime(i*1_000_000+300_000), []string{"q"}); err != nil {
			t.Fatal(err)
		}
	}
	in1.Quiesce(5_000_000)
	in2.Quiesce(5_000_000)
	out.await(t, 6)
}

func TestPeriodicCheckpointingAndFileLogs(t *testing.T) {
	dir := t.TempDir()
	out := newOutputs()
	cluster, err := tart.Launch(fig1App(),
		tart.WithCheckpointEvery(20*time.Millisecond),
		tart.WithDurableStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")
	for i := 0; i < 5; i++ {
		if _, err := in1.Emit([]string{"w"}); err != nil {
			t.Fatal(err)
		}
		if _, err := in2.Emit([]string{"v"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	out.await(t, 10)
	time.Sleep(60 * time.Millisecond) // let the periodic checkpointer fire
	m, _ := cluster.Metrics("main")
	if m.Checkpoints < 2 { // the durable store's launch checkpoint is the first
		t.Error("periodic checkpointing never fired")
	}
	// The WAL file exists on disk.
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "wal.log"))
	if len(matches) != 1 {
		t.Errorf("wal files = %v", matches)
	}
}

// handlerFunc adapts a stateless function to tart.Component.
type handlerFunc func(ctx *tart.Context, port string, payload any) (any, error)

func (f handlerFunc) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	return f(ctx, port, payload)
}

func TestLaunchValidation(t *testing.T) {
	app := tart.NewApp()
	if _, err := tart.Launch(app); err == nil {
		t.Error("empty app launched")
	}
	app2 := tart.NewApp()
	app2.Register("x", handlerFunc(func(*tart.Context, string, any) (any, error) { return nil, nil }))
	app2.Register("x", handlerFunc(func(*tart.Context, string, any) (any, error) { return nil, nil }))
	app2.SourceInto("in", "x", "i")
	app2.PlaceAll("e")
	if _, err := tart.Launch(app2); err == nil {
		t.Error("duplicate registration accepted")
	}
	// Calibration without linear estimator.
	app3 := tart.NewApp()
	app3.Register("x", handlerFunc(func(*tart.Context, string, any) (any, error) { return nil, nil }),
		tart.WithCalibration(10))
	app3.SourceInto("in", "x", "i")
	app3.PlaceAll("e")
	if _, err := tart.Launch(app3); err == nil {
		t.Error("calibration without linear estimator accepted")
	}
}

func TestClusterUnknownNames(t *testing.T) {
	cluster, err := tart.Launch(fig1App())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if _, err := cluster.Source("nope"); err == nil {
		t.Error("unknown source accepted")
	}
	if err := cluster.Sink("nope", func(tart.Output) {}); err == nil {
		t.Error("unknown sink accepted")
	}
	if _, err := cluster.Checkpoint("nope"); err == nil {
		t.Error("unknown engine checkpointed")
	}
	if err := cluster.Fail("nope"); err == nil {
		t.Error("unknown engine failed")
	}
	if err := cluster.Recover("main"); err == nil {
		t.Error("recover of healthy engine accepted")
	}
}

func TestRecoverWithoutCheckpointRejected(t *testing.T) {
	cluster, err := tart.Launch(fig1App())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Fail("main"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("main"); err == nil {
		t.Error("recover without any checkpoint accepted")
	}
}

func TestCallsThroughPublicAPI(t *testing.T) {
	app := tart.NewApp()
	app.Register("front", handlerFunc(func(ctx *tart.Context, port string, payload any) (any, error) {
		reply, err := ctx.Call("lookup", payload)
		if err != nil {
			return nil, err
		}
		return nil, ctx.Send("out", reply)
	}), tart.WithConstantCost(10*time.Microsecond))
	app.Register("backend", handlerFunc(func(ctx *tart.Context, port string, payload any) (any, error) {
		return fmt.Sprintf("looked-up:%v", payload), nil
	}), tart.WithConstantCost(30*time.Microsecond))
	app.SourceInto("in", "front", "req")
	app.ConnectCall("front", "lookup", "backend", "q")
	app.SinkFrom("out", "front", "out")
	app.PlaceAll("main")

	out := newOutputs()
	cluster, err := tart.Launch(app)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	src, _ := cluster.Source("in")
	if _, err := src.Emit(42); err != nil {
		t.Fatal(err)
	}
	got := out.await(t, 1)
	if got[0].Payload != "looked-up:42" {
		t.Errorf("call result = %v", got[0].Payload)
	}
}
