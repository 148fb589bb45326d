package tart_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	tart "repro"
	"repro/internal/checkpoint"
)

// chainRec is the per-key record of the chain tests' table component: a
// plain value, so checkpoints stage it with a copy.
type chainRec struct {
	Count uint64
	Last  uint64
	Pad   [4]uint64
}

// chainTable counts messages per key in a StateMap registered as the
// component's state, so checkpoints ship deltas of the touched keys.
type chainTable struct {
	m *tart.StateMap[uint64, chainRec]
}

func (c *chainTable) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	key := payload.(uint64)
	rec, _ := c.m.Get(key)
	rec.Count++
	rec.Last = uint64(ctx.Now())
	rec.Pad[rec.Count%4] ^= rec.Last * 0x9e3779b97f4a7c15
	c.m.Put(key, rec)
	return nil, ctx.Send("out", fmt.Sprintf("%d:%d", key, rec.Count))
}

// chainApp builds in -> table -> out with keys preloaded records. Every
// (re)open constructs it afresh, like a new process would.
func chainApp(keys int) (*tart.App, *tart.StateMap[uint64, chainRec]) {
	app, m := chainTableApp(keys)
	app.SinkFrom("out", "table", "out")
	app.PlaceAll("node")
	return app, m
}

// chainTableApp is chainApp up to the table: its output is left to wire.
func chainTableApp(keys int) (*tart.App, *tart.StateMap[uint64, chainRec]) {
	m := tart.NewStateMap[uint64, chainRec]()
	for k := 0; k < keys; k++ {
		m.Put(uint64(k), chainRec{Pad: [4]uint64{uint64(k) * 0xbf58476d1ce4e5b9, ^uint64(k)}})
	}
	app := tart.NewApp()
	app.Register("table", &chainTable{m: m}, tart.WithConstantCost(20_000), tart.WithState(m))
	app.SourceInto("in", "table", "in")
	return app, m
}

// chainRun drives one incarnation after another of the chain app over a
// shared output tape: the dedup cursor outlives restarts, as the external
// consumer it stands for does.
type chainRun struct {
	t       *testing.T
	opts    []tart.ClusterOption
	build   func(keys int) (*tart.App, *tart.StateMap[uint64, chainRec])
	keys    int
	cluster *tart.Cluster
	state   *tart.StateMap[uint64, chainRec]
	out     *outputs
	sink    func(tart.Output)
	emitted int
}

func newChainRun(t *testing.T, keys int, opts ...tart.ClusterOption) *chainRun {
	return newChainRunOf(t, chainApp, keys, opts...)
}

func newChainRunOf(t *testing.T, build func(int) (*tart.App, *tart.StateMap[uint64, chainRec]), keys int, opts ...tart.ClusterOption) *chainRun {
	r := &chainRun{t: t, build: build, keys: keys, out: newOutputs(),
		opts: append([]tart.ClusterOption{tart.WithManualClock(func() tart.VirtualTime { return 0 })}, opts...)}
	r.sink = tart.DedupOutputs(r.out.fn)
	r.start(tart.Launch)
	return r
}

func (r *chainRun) start(open func(*tart.App, ...tart.ClusterOption) (*tart.Cluster, error)) {
	r.t.Helper()
	app, m := r.build(r.keys)
	cluster, err := open(app, r.opts...)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := cluster.Sink("out", r.sink); err != nil {
		r.t.Fatal(err)
	}
	r.cluster, r.state = cluster, m
}

// restart stops the incarnation and reopens the state directory with fresh
// component objects; the replayed WAL suffix has drained when it returns.
// It returns the durable chain the reopen restored from (Reopen itself
// then takes a launch checkpoint, a new base).
func (r *chainRun) restart(dir string) []*checkpoint.Checkpoint {
	r.t.Helper()
	r.cluster.Stop()
	chain := durableChain(r.t, dir)
	r.start(tart.Reopen)
	r.out.await(r.t, r.emitted)
	return chain
}

// emit sends n messages, message i to key pick(i), 1 ms of virtual time
// apart, and waits for their outputs.
func (r *chainRun) emit(n int, pick func(i int) uint64) {
	r.t.Helper()
	src, err := r.cluster.Source("in")
	if err != nil {
		r.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.emitted++
		if err := src.EmitAt(tart.VirtualTime(r.emitted)*1_000_000, pick(i)); err != nil {
			r.t.Fatal(err)
		}
	}
	r.out.await(r.t, r.emitted)
}

func (r *chainRun) checkpoint() uint64 {
	r.t.Helper()
	seq, err := r.cluster.Checkpoint("node")
	if err != nil {
		r.t.Fatal(err)
	}
	return seq
}

// table copies the live state out; the component is idle (every output has
// arrived) whenever the tests call it.
func (r *chainRun) table() map[uint64]chainRec {
	out := make(map[uint64]chainRec, r.state.Len())
	for _, k := range r.state.SortedKeys() {
		out[k], _ = r.state.Get(k)
	}
	return out
}

// metric sums a family's series carrying the given label pairs: a
// counter's or gauge's value, a histogram's sum.
func (r *chainRun) metric(family string, labels ...string) float64 {
	r.t.Helper()
	fams, err := r.cluster.MetricFamilies("node")
	if err != nil {
		r.t.Fatal(err)
	}
	var sum float64
	for _, f := range fams {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			match := true
			for i := 0; i+1 < len(labels); i += 2 {
				match = match && s.Get(labels[i]) == labels[i+1]
			}
			switch {
			case !match:
			case s.Hist != nil:
				sum += s.Hist.Sum
			default:
				sum += s.Value
			}
		}
	}
	return sum
}

func durableChain(t *testing.T, dir string) []*checkpoint.Checkpoint {
	t.Helper()
	fs, err := checkpoint.OpenFileStore(filepath.Join(dir, "node", "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if n := fs.TornFallbacks(); n != 0 {
		t.Fatalf("durable store discarded %d entries", n)
	}
	chain, err := fs.Chain()
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

// TestDurableCheckpointsShipDeltas: with a durable store a StateMap
// component's checkpoints after the first carry only what changed — one
// percent of 100k keys touched is a few percent of the bytes, on disk and
// in tart_checkpoint_bytes — and a cold restart folds the chain back: the
// run is stopped and reopened once mid-chain (full + delta + WAL suffix)
// and once right after a base (the full capture a reopen takes on launch),
// and its deduplicated tape and final state equal those of a run that
// never stopped.
func TestDurableCheckpointsShipDeltas(t *testing.T) {
	const keys = 100_000
	spread := func(i int) uint64 { return uint64(i) * 97 % keys } // distinct for i < keys
	hot := func(i int) uint64 { return uint64(i % 40) }

	ref := newChainRun(t, keys)
	defer func() { ref.cluster.Stop() }()
	ref.emit(keys/100, spread)
	for _, pick := range []func(int) uint64{hot, spread, hot, spread} {
		ref.emit(60, pick)
	}

	dir := t.TempDir()
	run := newChainRun(t, keys, tart.WithDurableStore(dir))
	defer func() { run.cluster.Stop() }()
	run.emit(keys/100, spread)
	run.checkpoint() // seq 2: a delta over the launch base
	size := func(seq uint64) int64 {
		fi, err := os.Stat(filepath.Join(dir, "node", "checkpoints", fmt.Sprintf("ckpt-%016d.bin", seq)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if base, delta := size(1), size(2); delta*20 >= base {
		t.Errorf("second durable checkpoint is %d bytes on disk, the first %d: want under 5%%", delta, base)
	}
	fullBytes := run.metric("tart_checkpoint_bytes", "kind", "full")
	deltaBytes := run.metric("tart_checkpoint_bytes", "kind", "delta")
	if fullBytes == 0 || deltaBytes == 0 || deltaBytes*20 >= fullBytes {
		t.Errorf("tart_checkpoint_bytes: delta %v vs full %v, want a non-zero delta under 5%% of the full", deltaBytes, fullBytes)
	}
	if n := run.metric("tart_checkpoints_total", "kind", "delta"); n != 1 {
		t.Errorf("tart_checkpoints_total{kind=delta} = %v, want 1", n)
	}

	run.emit(60, hot)
	if chain := run.restart(dir); len(chain) != 2 || chain[1].IsBase() {
		t.Errorf("mid-chain restart restored %d entries, want the base and its delta", len(chain))
	}
	if got := run.metric("tart_coldstart_replayed_records"); got != 60 {
		t.Errorf("mid-chain restart replayed %v logged inputs, want the 60 after the delta", got)
	}
	run.emit(60, spread)
	if chain := run.restart(dir); len(chain) != 1 || chain[0].Seq != 3 {
		t.Errorf("second restart restored %d entries from seq %d, want only the base the first reopen took", len(chain), chain[0].Seq)
	}
	run.emit(60, hot)
	run.checkpoint() // a delta again, over the second reopen's base
	if n := run.metric("tart_checkpoints_total", "kind", "delta"); n != 1 {
		t.Errorf("after the second restart tart_checkpoints_total{kind=delta} = %v, want 1", n)
	}
	run.emit(60, spread)

	want, got := ref.out.await(t, ref.emitted), run.out.await(t, run.emitted)
	if len(want) != len(got) {
		t.Fatalf("tape length: uninterrupted %d, restarted %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("tape diverges at output %d: uninterrupted %+v, restarted %+v", i, want[i], got[i])
		}
	}
	if !reflect.DeepEqual(ref.table(), run.table()) {
		t.Error("final table of the restarted run differs from the uninterrupted one")
	}
}

// TestCheckpointChainBounded pins the recovery bound: however many
// checkpoints a durable engine takes, the chain a cold restart has to fold
// is a full capture plus at most nine deltas (every tenth checkpoint is
// full), the store holds at most two chains, and the restart replays only
// the inputs logged after the newest entry — so recovery work is bounded by
// restore(base) + 9 x apply(delta) + replay(one checkpoint interval).
func TestCheckpointChainBounded(t *testing.T) {
	const maxDeltas = 9 // engine.fullCheckpointEvery - 1
	dir := t.TempDir()
	run := newChainRun(t, 500, tart.WithDurableStore(dir))
	defer func() { run.cluster.Stop() }()
	hot := func(i int) uint64 { return uint64(i*7) % 500 }
	longest := 0
	for c := 0; c < 24; c++ {
		run.emit(5, hot)
		seq := run.checkpoint()
		chain := durableChain(t, dir)
		if len(chain) > 1+maxDeltas || !chain[0].IsBase() || chain[len(chain)-1].Seq != seq {
			t.Fatalf("after checkpoint %d the durable chain is %d entries from seq %d", seq, len(chain), chain[0].Seq)
		}
		longest = max(longest, len(chain))
		files, err := filepath.Glob(filepath.Join(dir, "node", "checkpoints", "ckpt-*.bin"))
		if err != nil || len(files) > 2*(1+maxDeltas) {
			t.Fatalf("after checkpoint %d the store holds %d files (%v), want at most two chains", seq, len(files), err)
		}
	}
	if longest != 1+maxDeltas {
		t.Errorf("longest chain seen is %d entries, want the bound %d to be reached", longest, 1+maxDeltas)
	}
	run.emit(7, hot) // logged after the newest entry
	want := run.table()
	if chain := run.restart(dir); len(chain)-1 > maxDeltas {
		t.Errorf("restart folded %d deltas, bound is %d", len(chain)-1, maxDeltas)
	}
	if got := run.metric("tart_coldstart_replayed_records"); got != 7 {
		t.Errorf("restart replayed %v logged inputs, want only the 7 after the newest checkpoint", got)
	}
	if !reflect.DeepEqual(want, run.table()) {
		t.Error("restored table differs from the one the stopped run held")
	}
}

// moodyTally numbers what passes through it. It checkpoints incrementally
// but answers some requests for a delta with a full capture, as any
// DeltaSnapshotter may, on a cycle of its own.
type moodyTally struct {
	tab   *tart.StateMap[string, int]
	asked int // delta requests so far; not state
}

func (m *moodyTally) OnMessage(ctx *tart.Context, _ string, p any) (any, error) {
	n, _ := m.tab.Get("n")
	m.tab.Put("n", n+1)
	return nil, ctx.Send("out", fmt.Sprintf("%s#%d", p, n+1))
}

func (m *moodyTally) Snapshot() ([]byte, error) { return m.tab.Snapshot() }
func (m *moodyTally) Restore(d []byte) error    { return m.tab.Restore(d) }
func (m *moodyTally) ApplyDelta(d []byte) error { return m.tab.ApplyDelta(d) }
func (m *moodyTally) Delta() ([]byte, bool, error) {
	if m.asked++; m.asked%10 == 5 {
		return nil, false, nil
	}
	return m.tab.Delta()
}

// TestCheckpointChainBoundedAcrossComponents: the chain bound is the
// engine's. Two incremental components share an engine and one of them
// takes full captures out of step with the other; a base — every component
// full in the same checkpoint — must still come round every tenth
// checkpoint, or the durable chain, the store's retention and a restart's
// fold all grow without limit.
func TestCheckpointChainBoundedAcrossComponents(t *testing.T) {
	const maxDeltas = 9 // engine.fullCheckpointEvery - 1
	build := func(keys int) (*tart.App, *tart.StateMap[uint64, chainRec]) {
		app, m := chainTableApp(keys)
		app.Register("tally", &moodyTally{tab: tart.NewStateMap[string, int]()}, tart.WithConstantCost(20_000))
		app.Connect("table", "out", "tally", "in")
		app.SinkFrom("out", "tally", "out")
		app.PlaceAll("node")
		return app, m
	}
	dir := t.TempDir()
	run := newChainRunOf(t, build, 50, tart.WithDurableStore(dir))
	defer func() { run.cluster.Stop() }()
	hot := func(i int) uint64 { return uint64(i*7) % 50 }
	earlyFulls := 0
	for c := 0; c < 45; c++ {
		run.emit(3, hot)
		seq := run.checkpoint()
		chain := durableChain(t, dir)
		if len(chain) > 1+maxDeltas || chain[len(chain)-1].Seq != seq {
			t.Fatalf("after checkpoint %d the durable chain is %d entries from seq %d", seq, len(chain), chain[0].Seq)
		}
		if got := run.metric("tart_checkpoint_chain_length"); int(got) != len(chain) {
			t.Fatalf("after checkpoint %d tart_checkpoint_chain_length = %v, the durable chain holds %d", seq, got, len(chain))
		}
		if newest := chain[len(chain)-1]; !newest.IsBase() && newest.Components["tally"].Kind == checkpoint.HandlerFull {
			earlyFulls++
		}
		files, err := filepath.Glob(filepath.Join(dir, "node", "checkpoints", "ckpt-*.bin"))
		if err != nil || len(files) > 2*(1+maxDeltas) {
			t.Fatalf("after checkpoint %d the store holds %d files (%v), want at most two chains", seq, len(files), err)
		}
	}
	if earlyFulls == 0 {
		t.Fatal("the tally never answered a delta request with a full capture: the test exercises nothing")
	}
	run.emit(4, hot)
	want := run.table()
	if chain := run.restart(dir); len(chain)-1 > maxDeltas {
		t.Errorf("restart folded %d deltas, bound is %d", len(chain)-1, maxDeltas)
	}
	if !reflect.DeepEqual(want, run.table()) {
		t.Error("restored table differs from the one the stopped run held")
	}
	// The tally's count rides on every output: it too came back through
	// the chain if the numbering carries on where the stopped run left it.
	run.emit(1, hot)
	tape := run.out.await(t, run.emitted)
	if last := tape[len(tape)-1].Payload.(string); !strings.HasSuffix(last, fmt.Sprintf("#%d", run.emitted)) {
		t.Errorf("after the restart output %d is %q: the tally lost count", run.emitted, last)
	}
}

// TestReopenBelowWALTrimFails is the regression test for silent input loss:
// the WAL is trimmed through the newest checkpoint's cursors, so when the
// durable store has to fall back past that checkpoint (its file is torn),
// the restart would resume from older state with the inputs in between
// gone. Reopen must refuse, naming the source and the missing range; before
// the fix it succeeded and the component silently lost those inputs.
func TestReopenBelowWALTrimFails(t *testing.T) {
	dir := t.TempDir()
	run := newChainRun(t, 10, tart.WithDurableStore(dir))
	defer func() { run.cluster.Stop() }()
	one := func(int) uint64 { return 1 }
	run.emit(5, one)
	run.checkpoint() // seq 2, cursor 6
	run.emit(5, one)
	run.checkpoint() // seq 3, cursor 11: inputs 1..10 trimmed
	run.emit(2, one)
	run.cluster.Stop()

	newest := filepath.Join(dir, "node", "checkpoints", fmt.Sprintf("ckpt-%016d.bin", 3))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	app, _ := chainApp(10)
	cluster, err := tart.Reopen(app, run.opts...)
	if err == nil {
		cluster.Stop()
		t.Fatal("Reopen fell back below the WAL trim point and succeeded: inputs 6..10 are silently lost")
	}
	for _, want := range []string{`"in"`, "6..10"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Reopen error %q does not name %s", err, want)
		}
	}
}
