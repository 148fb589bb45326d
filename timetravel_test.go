package tart_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	tart "repro"
	"repro/internal/faults"
	"repro/internal/inspect"
	"repro/internal/wal"
)

// ttCounter accumulates per-key counts; the checkpointable state the
// time-travel tests reconstruct and compare.
type ttCounter struct {
	Seen map[string]int
	Sum  int
}

func (c *ttCounter) OnMessage(ctx *tart.Context, _ string, p any) (any, error) {
	if c.Seen == nil {
		c.Seen = make(map[string]int)
	}
	key := fmt.Sprint(p)
	c.Seen[key]++
	c.Sum++
	return nil, ctx.Send("out", p)
}

// ttRelay is a stateful second stage, so reconstructions cross a
// component-to-component wire.
type ttRelay struct{ Count int }

func (r *ttRelay) OnMessage(ctx *tart.Context, _ string, p any) (any, error) {
	r.Count++
	return nil, ctx.Send("out", p)
}

// ttApp builds source -> counter -> relay -> sink. The costs stay under
// every test's input spacing (TestRewindCadence's is 500 VT), so each
// component's clock tracks the arrival VTs and checkpoints land where the
// inputs put them.
func ttApp() *tart.App {
	app := tart.NewApp()
	app.Register("counter", &ttCounter{}, tart.WithConstantCost(100*time.Nanosecond))
	app.Register("relay", &ttRelay{}, tart.WithConstantCost(50*time.Nanosecond))
	app.Connect("counter", "out", "relay", "in")
	app.SourceInto("in", "counter", "in")
	app.SinkFrom("out", "relay", "out")
	app.PlaceAll("main")
	return app
}

// ttHarness launches the two-stage app with time travel on and returns the
// cluster plus a waiter for the Nth sink output.
func ttHarness(t *testing.T, opts ...tart.ClusterOption) (*tart.Cluster, func(n int)) {
	t.Helper()
	base := []tart.ClusterOption{
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithFlightRecorder(""),
		tart.WithTimeTravel(tart.TimeTravel{History: 32}),
	}
	cluster, err := tart.Launch(ttApp(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)

	var mu sync.Mutex
	seen := 0
	waiters := make(map[int]chan struct{})
	if err := cluster.Sink("out", tart.DedupOutputs(func(tart.Output) {
		mu.Lock()
		seen++
		if ch, ok := waiters[seen]; ok {
			close(ch)
			delete(waiters, seen)
		}
		mu.Unlock()
	})); err != nil {
		t.Fatal(err)
	}
	await := func(n int) {
		t.Helper()
		mu.Lock()
		if seen >= n {
			mu.Unlock()
			return
		}
		ch := make(chan struct{})
		waiters[n] = ch
		mu.Unlock()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %d outputs", n)
		}
	}
	return cluster, await
}

// TestRewindMatchesLiveSnapshots is the round-trip property: for several
// seeds, run a workload punctuated by checkpoints and a crash/failover,
// then reconstruct the state at every checkpoint's VT starting from every
// earlier rewind point. Each reconstruction must be bit-identical (decoded
// state, rendering, audit chain and count) to the state the live run
// captured at that VT — including checkpoints taken after the failover.
func TestRewindMatchesLiveSnapshots(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cluster, await := ttHarness(t)
			src, err := cluster.Source("in")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			emitted := 0
			emit := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					emitted++
					vt := tart.VirtualTime(emitted) * 1_000_000 // 1ms apart
					if err := src.EmitAt(vt, fmt.Sprintf("k%d", rng.Intn(4))); err != nil {
						t.Fatal(err)
					}
				}
				await(emitted)
			}
			checkpoint := func() {
				t.Helper()
				if _, err := cluster.Checkpoint("main"); err != nil {
					t.Fatal(err)
				}
			}

			emit(5 + int(seed))
			checkpoint()
			emit(4 + int(seed))
			// Crash/failover boundary: later checkpoints sit on replayed
			// history, and reconstructions crossing them must still agree.
			if err := cluster.Fail("main"); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Recover("main"); err != nil {
				t.Fatal(err)
			}
			emit(3)
			checkpoint()
			emit(6)
			checkpoint()

			points := cluster.RewindPoints()["main"]
			if len(points) < 4 { // launch baseline + 3 explicit
				t.Fatalf("expected >= 4 rewind points, got %v", points)
			}
			for li, later := range points {
				// The point itself is the live snapshot at its VT: restore it
				// with nothing to replay and keep it as ground truth.
				want := mustRewindFrom(t, cluster, later.Seq, later.VT)
				for _, earlier := range points[:li] {
					got := mustRewindFrom(t, cluster, earlier.Seq, later.VT)
					compareStates(t, earlier.Seq, later, want, got)
				}
			}

			// Bounded rewind cost: targeting the newest point's VT picks that
			// point and replays nothing.
			last := points[len(points)-1]
			res, err := cluster.RewindRun(tart.RewindOptions{Target: last.VT})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Points["main"].Seq; got != last.Seq {
				t.Fatalf("target %d chose point seq %d, want newest %d", last.VT, got, last.Seq)
			}
			if res.Replayed != 0 {
				t.Fatalf("rewind to the newest point replayed %d deliveries, want 0", res.Replayed)
			}
		})
	}
}

func mustRewindFrom(t *testing.T, cluster *tart.Cluster, fromSeq uint64, target tart.VirtualTime) map[string]*tart.RewindState {
	t.Helper()
	res, err := cluster.RewindRun(tart.RewindOptions{
		Target:  target,
		FromSeq: map[string]uint64{"main": fromSeq},
	})
	if err != nil {
		t.Fatalf("rewind from seq %d to VT %d: %v", fromSeq, target, err)
	}
	return res.States
}

func compareStates(t *testing.T, fromSeq uint64, at tart.RewindPoint, want, got map[string]*tart.RewindState) {
	t.Helper()
	for _, comp := range []string{"counter", "relay"} {
		w, g := want[comp], got[comp]
		if w == nil || g == nil {
			t.Fatalf("missing reconstructed state for %q (want=%v got=%v)", comp, w != nil, g != nil)
		}
		if g.AuditChain != w.AuditChain || g.AuditCount != w.AuditCount {
			t.Fatalf("from seq %d at VT %d: %q audit chain/count (%#x,%d) != live (%#x,%d)",
				fromSeq, at.VT, comp, g.AuditChain, g.AuditCount, w.AuditChain, w.AuditCount)
		}
		if g.Render != w.Render {
			t.Fatalf("from seq %d at VT %d: %q state %q != live %q", fromSeq, at.VT, comp, g.Render, w.Render)
		}
		// Bit-identical decoded state (raw gob bytes are not map-order
		// deterministic, so compare the decoded values).
		var ws, gs any
		if comp == "counter" {
			wc, gc := &ttCounter{}, &ttCounter{}
			if err := w.Decode(wc); err != nil {
				t.Fatal(err)
			}
			if err := g.Decode(gc); err != nil {
				t.Fatal(err)
			}
			ws, gs = wc, gc
		} else {
			wr, gr := &ttRelay{}, &ttRelay{}
			if err := w.Decode(wr); err != nil {
				t.Fatal(err)
			}
			if err := g.Decode(gr); err != nil {
				t.Fatal(err)
			}
			ws, gs = wr, gr
		}
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("from seq %d at VT %d: %q decoded state %+v != live %+v", fromSeq, at.VT, comp, gs, ws)
		}
	}
}

// TestBisectPinsSeededCorruption seeds a silent WAL payload corruption via
// the chaos injector (the persisted record mutates; the live delivery does
// not) and asserts bisection pins the first divergent delivery to the
// exact (wire, seq, VT) — through the Go API and the /rewind endpoint.
func TestBisectPinsSeededCorruption(t *testing.T) {
	inj := wal.NewInjector()
	cluster, await := ttHarness(t,
		faults.WithFaults(nil, inj).(tart.ClusterOption),
		tart.WithDebugHTTP(map[string]string{"main": "127.0.0.1:0"}),
	)
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := src.EmitAt(tart.VirtualTime(i)*1_000_000, fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	await(5)
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}

	// The 6th input's logged payload is corrupted; its live delivery and
	// everything after stay intact.
	inj.CorruptInputs("main", 1)
	const corruptVT = tart.VirtualTime(6_000_000)
	for i := 6; i <= 10; i++ {
		if err := src.EmitAt(tart.VirtualTime(i)*1_000_000, fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	await(10)
	if n := inj.Corrupted(); n != 1 {
		t.Fatalf("corrupted %d records, want 1", n)
	}

	rep, err := cluster.Bisect("counter")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Divergence {
		t.Fatalf("bisect found no divergence: %+v", rep)
	}
	if rep.Seq != 6 || rep.VT != corruptVT {
		t.Fatalf("bisect pinned (seq %d, VT %d), want (6, %d)", rep.Seq, rep.VT, corruptVT)
	}
	if rep.LiveChain == rep.ReplayChain {
		t.Fatalf("divergent delivery reports identical chains %#x", rep.LiveChain)
	}
	if rep.Compared == 0 || rep.Probes == 0 {
		t.Fatalf("bisect did no work: %+v", rep)
	}

	// An uncorrupted component upstream of nothing corrupt... relay sits
	// downstream of the corrupted wire only through live (intact) traffic,
	// so its replay diverges too — but the divergence VT must not precede
	// the corruption.
	relayRep, err := cluster.Bisect("relay")
	if err != nil {
		t.Fatal(err)
	}
	if relayRep.Divergence && relayRep.VT < corruptVT {
		t.Fatalf("relay divergence at VT %d precedes the corruption at %d", relayRep.VT, corruptVT)
	}

	// Same answer over HTTP.
	addr, err := cluster.DebugAddr("main")
	if err != nil || addr == "" {
		t.Fatalf("debug addr: %q err=%v", addr, err)
	}
	resp, err := http.Get("http://" + addr + "/rewind?op=bisect&component=counter")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rewind bisect: HTTP %d", resp.StatusCode)
	}
	var httpRep tart.BisectReport
	if err := json.NewDecoder(resp.Body).Decode(&httpRep); err != nil {
		t.Fatal(err)
	}
	if !httpRep.Divergence || httpRep.Seq != rep.Seq || httpRep.VT != rep.VT {
		t.Fatalf("/rewind bisect %+v disagrees with API %+v", httpRep, rep)
	}
}

// TestStateWatchpoint replays with a predicate over decoded component
// state and asserts the first firing delivery (VT and causal origin).
func TestStateWatchpoint(t *testing.T) {
	cluster, await := ttHarness(t)
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 9; i++ {
		if err := src.EmitAt(tart.VirtualTime(i)*1_000_000, fmt.Sprintf("k%d", i%2)); err != nil {
			t.Fatal(err)
		}
	}
	await(9)
	if _, err := cluster.Checkpoint("main"); err != nil {
		t.Fatal(err)
	}
	points := cluster.RewindPoints()["main"]
	target := points[len(points)-1].VT

	res, err := cluster.RewindRun(tart.RewindOptions{
		Target: target,
		FromSeq: map[string]uint64{
			"main": points[0].Seq, // replay from the launch baseline
		},
		Watch: map[string]inspect.Predicate{
			"counter": func(state any) bool { return state.(*ttCounter).Sum >= 7 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hit := res.Watch["counter"]
	if hit == nil {
		t.Fatalf("watchpoint never fired: %+v", res)
	}
	// Sum reaches 7 on the 7th delivery: input seq 7, VT 7ms.
	if hit.Delivery.Seq != 7 {
		t.Fatalf("watchpoint fired at delivery seq %d, want 7", hit.Delivery.Seq)
	}
	if hit.Delivery.VT != 7_000_000 {
		t.Fatalf("watchpoint fired at VT %d, want 7000000", hit.Delivery.VT)
	}
	if hit.Delivery.Origin == 0 {
		t.Fatal("watchpoint hit carries no causal origin")
	}
}

// ttLedger keeps per-key counts in a StateMap and checkpoints them
// incrementally by implementing the delta half of the snapshot contract
// itself, so with time travel on most of its rewind points are deltas.
type ttLedger struct{ tab *tart.StateMap[string, int] }

func (l *ttLedger) table() *tart.StateMap[string, int] {
	if l.tab == nil { // a sandbox clone starts from the zero value
		l.tab = tart.NewStateMap[string, int]()
	}
	return l.tab
}

func (l *ttLedger) OnMessage(ctx *tart.Context, _ string, p any) (any, error) {
	n, _ := l.table().Get(p.(string))
	l.table().Put(p.(string), n+1)
	return nil, ctx.Send("out", p)
}

func (l *ttLedger) Snapshot() ([]byte, error)    { return l.table().Snapshot() }
func (l *ttLedger) Restore(d []byte) error       { return l.table().Restore(d) }
func (l *ttLedger) Delta() ([]byte, bool, error) { return l.table().Delta() }
func (l *ttLedger) ApplyDelta(d []byte) error    { return l.table().ApplyDelta(d) }
func (l ttLedger) String() (s string) {
	for _, k := range l.table().SortedKeys() {
		v, _ := l.tab.Get(k)
		s += fmt.Sprintf("%s=%d ", k, v)
	}
	return s
}

// TestRewindAcrossDeltaPoints: rewind points archived from delta
// checkpoints reconstruct exactly what the live component held — from the
// point itself (its chain folded, nothing replayed) and from every older
// retained point (chain folded, inputs replayed) — including after history
// has evicted the full capture those deltas extend, and across the next
// full capture.
func TestRewindAcrossDeltaPoints(t *testing.T) {
	app := tart.NewApp()
	live := &ttLedger{}
	app.Register("ledger", live, tart.WithConstantCost(30*time.Microsecond))
	app.SourceInto("in", "ledger", "in")
	app.SinkFrom("out", "ledger", "out")
	app.PlaceAll("main")
	cluster, err := tart.Launch(app,
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithTimeTravel(tart.TimeTravel{History: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	out := newOutputs()
	if err := cluster.Sink("out", out.fn); err != nil {
		t.Fatal(err)
	}
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}

	held := make(map[uint64]string) // checkpoint seq -> what the live ledger held
	check := func() {
		t.Helper()
		points := cluster.RewindPoints()["main"]
		if len(points) != 4 {
			t.Fatalf("history 4 retains %d points", len(points))
		}
		for li, later := range points {
			for _, earlier := range points[:li+1] {
				res, err := cluster.RewindRun(tart.RewindOptions{
					Target: later.VT, FromSeq: map[string]uint64{"main": earlier.Seq}})
				if err != nil {
					t.Fatalf("rewind to point %d from point %d: %v", later.Seq, earlier.Seq, err)
				}
				if got := res.States["ledger"].Render; got != held[later.Seq] {
					t.Fatalf("rewind to point %d from point %d: ledger %q, live run held %q", later.Seq, earlier.Seq, got, held[later.Seq])
				}
			}
		}
	}
	step := func(i int) {
		t.Helper()
		if err := src.EmitAt(tart.VirtualTime(i)*1_000_000, fmt.Sprintf("k%d", i%3)); err != nil {
			t.Fatal(err)
		}
		out.await(t, i)
		seq, err := cluster.Checkpoint("main")
		if err != nil {
			t.Fatal(err)
		}
		held[seq] = live.String()
	}
	// The launch checkpoint (seq 1) is the full capture; 2..10 are deltas.
	for i := 1; i <= 8; i++ {
		step(i)
	}
	check() // points 6..9: all deltas, their base evicted from the listing
	for i := 9; i <= 11; i++ {
		step(i)
	}
	check() // points 9..12 straddle the full capture at seq 11
	fams, err := cluster.MetricFamilies("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		for _, s := range f.Series {
			if f.Name == "tart_checkpoints_total" && s.Get("kind") == "delta" && s.Value != 10 {
				t.Errorf("%v of the 12 checkpoints were deltas, want 10", s.Value)
			}
		}
	}
	if _, err := cluster.RewindRun(tart.RewindOptions{Target: 1_000_000, Components: []string{"ledger"}}); !errors.Is(err, tart.ErrRewindTooOld) {
		t.Fatalf("rewind before the oldest listed point: want ErrRewindTooOld, got %v", err)
	}
}

// TestUnarchivableCheckpointFails: a checkpoint the rewind archive cannot
// encode (here, a replay buffer holding an unregistered payload type) fails
// Checkpoint loudly, as a durable store would, instead of vanishing from the
// archive while the engine counts it as taken, and the cluster keeps
// delivering.
func TestUnarchivableCheckpointFails(t *testing.T) {
	cluster, await := ttHarness(t, tart.WithTimeTravel(tart.TimeTravel{History: 32}))
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	before := len(cluster.RewindPoints()["main"])

	type unregistered struct{ N int }
	if err := src.EmitAt(1_000_000, unregistered{N: 1}); err != nil {
		t.Fatal(err)
	}
	await(1)
	seq, err := cluster.Checkpoint("main")
	if err == nil || !strings.Contains(err.Error(), "tart.RegisterPayload") {
		t.Fatalf("Checkpoint = seq %d, %v; want an error naming tart.RegisterPayload", seq, err)
	}
	if got := len(cluster.RewindPoints()["main"]); got != before {
		t.Fatalf("rewind points went from %d to %d across a failed checkpoint", before, got)
	}
	if err := src.EmitAt(1_500_000, "after"); err != nil {
		t.Fatal(err)
	}
	await(2)
}

// TestRewindBeforeHistory asserts a target older than the oldest retained
// rewind point fails promptly with ErrRewindTooOld instead of hanging.
func TestRewindBeforeHistory(t *testing.T) {
	cluster, await := ttHarness(t, tart.WithTimeTravel(tart.TimeTravel{History: 2}))
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := src.EmitAt(tart.VirtualTime(i)*1_000_000, "x"); err != nil {
			t.Fatal(err)
		}
		await(i)
		if _, err := cluster.Checkpoint("main"); err != nil {
			t.Fatal(err)
		}
	}
	points := cluster.RewindPoints()["main"]
	if len(points) != 2 {
		t.Fatalf("history 2 retained %d points: %v", len(points), points)
	}

	start := time.Now()
	_, err = cluster.RewindRun(tart.RewindOptions{Target: 0, Components: []string{"counter"}}) // VT 0 predates the oldest survivor
	if !errors.Is(err, tart.ErrRewindTooOld) {
		t.Fatalf("want ErrRewindTooOld, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("too-old rewind took %v, want a prompt error", elapsed)
	}

	// The newest retained past is still reachable.
	res, err := cluster.RewindRun(tart.RewindOptions{Target: points[len(points)-1].VT, Components: []string{"counter"}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.States["counter"]
	if st == nil {
		t.Fatal("no state reconstructed for counter")
	}
	if st.AuditCount != 3 {
		t.Fatalf("reconstructed counter has %d deliveries, want 3", st.AuditCount)
	}
}

// TestRewindCadence prices the rewind checkpoint cadence on one fixed
// workload: 1,200 inputs 500 VT apart, a checkpoint at every cadence
// boundary, and the same twelve seeded targets reconstructed against each
// archive. A reconstruction restores the newest point at or before its
// target and replays the gap, so the retained points grow as the cadence
// shrinks and the deliveries replayed per reconstruction fall with it.
// Both columns are deterministic and asserted exactly (EXPERIMENTS
// *Rewind latency vs. checkpoint cadence*); the latencies are logged.
func TestRewindCadence(t *testing.T) {
	const (
		inputs  = 1200
		spacing = 500
		probes  = 12
	)
	for _, c := range []struct {
		cadence  int64 // VT between checkpoints
		points   int   // the launch point and one per boundary
		replayed int   // deliveries re-executed over all probes, both components
	}{
		{1_000, 601, 66},
		{10_000, 61, 302},
		{100_000, 7, 2102},
	} {
		t.Run(fmt.Sprintf("cadence=%d", c.cadence), func(t *testing.T) {
			cluster, await := ttHarness(t, tart.WithTimeTravel(tart.TimeTravel{History: c.points}))
			src, err := cluster.Source("in")
			if err != nil {
				t.Fatal(err)
			}
			// Quiesce before each checkpoint, so every point covers a
			// known input prefix.
			next := c.cadence
			for i := 1; i <= inputs; i++ {
				at := tart.VirtualTime(i * spacing)
				if err := src.EmitAt(at, i%7); err != nil {
					t.Fatal(err)
				}
				if int64(at) >= next {
					await(i)
					if _, err := cluster.Checkpoint("main"); err != nil {
						t.Fatal(err)
					}
					next += c.cadence
				}
			}
			await(inputs)
			points := cluster.RewindPoints()["main"]
			if len(points) != c.points {
				t.Errorf("%d rewind points retained, want %d", len(points), c.points)
			}

			// Past the first boundary, so every target has a point.
			rng := rand.New(rand.NewSource(2))
			var total, worst time.Duration
			replayed := 0
			for p := 0; p < probes; p++ {
				target := tart.VirtualTime(c.cadence + rng.Int63n(inputs*spacing-c.cadence))
				start := time.Now()
				res, err := cluster.RewindRun(tart.RewindOptions{Target: target})
				if err != nil {
					t.Fatalf("target %d: %v", target, err)
				}
				d := time.Since(start)
				total += d
				worst = max(worst, d)
				replayed += res.Replayed
			}
			if replayed != c.replayed {
				t.Errorf("%d deliveries replayed over %d reconstructions (mean %.1f), want %d",
					replayed, probes, float64(replayed)/probes, c.replayed)
			}
			// The floor: a target exactly at the newest point replays nothing.
			start := time.Now()
			if _, err := cluster.RewindRun(tart.RewindOptions{Target: points[len(points)-1].VT}); err != nil {
				t.Fatal(err)
			}
			t.Logf("points %d, replayed %.1f per reconstruction, rewind mean %v max %v, restore-only %v",
				len(points), float64(replayed)/probes, (total / probes).Round(10*time.Microsecond),
				worst.Round(10*time.Microsecond), time.Since(start).Round(10*time.Microsecond))
		})
	}
}
