package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

// TestWithQuiescentSeesQuiescentState checks the sync.Cond-based
// quiescence: snapshots taken while a stream is being handled never observe
// a handler mid-flight, and they complete promptly (the delivery batch
// yields to waiters) instead of starving behind the backlog.
func TestWithQuiescentSeesQuiescentState(t *testing.T) {
	tp := fanInTopo(t, 1)
	f := newFabric(t, tp)
	var inHandler atomic.Int32
	var handled atomic.Int64
	f.add("sender0", passthrough("out"))
	s := f.add("merger", HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		inHandler.Store(1)
		time.Sleep(50 * time.Microsecond)
		inHandler.Store(0)
		handled.Add(1)
		return nil, ctx.Send("out", payload)
	}))
	f.start()
	defer f.stop()

	const n = 400
	go func() {
		base := vt.Time(0)
		for i := 0; i < n; i++ {
			base = base.Add(1000)
			f.emit("in0", base, i)
		}
		f.quiesce("in0", vt.Max)
	}()

	snapshots := 0
	deadline := time.Now().Add(20 * time.Second)
	for handled.Load() < n && time.Now().Before(deadline) {
		s.WithQuiescent(func(st State) {
			if inHandler.Load() != 0 {
				t.Error("WithQuiescent observed a handler mid-flight")
			}
			if st.Clock < 0 && st.Clock != vt.Never {
				t.Errorf("inconsistent snapshot clock %v", st.Clock)
			}
		})
		snapshots++
	}
	if handled.Load() < n {
		t.Fatalf("stream stalled: handled %d of %d after %d snapshots", handled.Load(), n, snapshots)
	}
	if snapshots == 0 {
		t.Fatal("no snapshot completed while the stream was in flight")
	}
}

// TestHoldbackCapSheds checks the bounded hold-back area: out-of-gap
// arrivals beyond the cap are dropped (and counted), the gap is reported,
// and shed envelopes can be re-delivered after the gap fills — the drop is
// lossless given replay.
func TestHoldbackCapSheds(t *testing.T) {
	tp := fanInTopo(t, 1)
	f := newFabric(t, tp)
	var handled atomic.Int64
	const cap = 4
	f.add("sender0", passthrough("out"))
	m := f.add("merger", HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		handled.Add(1)
		return nil, ctx.Send("out", payload)
	}), func(c *Config) {
		c.HoldbackLimit = cap
	})
	f.start()
	defer f.stop()

	// The merger's single input wire comes from sender0; address it directly.
	merger, _ := tp.ComponentByName("merger")
	wid := merger.Inputs[0]

	// Seq 1 is missing: 2..cap+1 park in holdback, cap+2..11 are shed.
	const total = 11
	for seq := 2; seq <= total; seq++ {
		m.Deliver(msg.NewData(wid, uint64(seq), vt.Time(seq*1000), seq))
	}
	if d := totalOf(m).HoldbackDrops; d != total-1-cap {
		t.Fatalf("holdback drops = %v, want %d", d, total-1-cap)
	}
	if from, ok := func() (uint64, bool) {
		gaps := m.Gaps()
		v, ok := gaps[wid]
		return v, ok
	}(); !ok || from != 1 {
		t.Fatalf("gap report = (%d,%v), want (1,true)", from, ok)
	}

	// Fill the gap: 1..cap+1 deliver; then replay the shed suffix.
	m.Deliver(msg.NewData(wid, 1, 500, 1))
	for seq := cap + 2; seq <= total; seq++ {
		m.Deliver(msg.NewData(wid, uint64(seq), vt.Time(seq*1000), seq))
	}
	m.Deliver(msg.NewSilence(wid, vt.Max))
	deadline := time.Now().Add(10 * time.Second)
	for handled.Load() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() != total {
		t.Fatalf("handled %d of %d after gap fill + replay", handled.Load(), total)
	}
}

// TestRingQueue exercises the ring buffer across growth and wrap-around.
func TestRingQueue(t *testing.T) {
	var r ring
	next := uint64(0)
	popped := uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			next++
			r.push(queued{env: msg.Envelope{Seq: next}})
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if h := r.peek(); h == nil || h.env.Seq != popped+1 {
				t.Fatalf("peek = %v, want seq %d", h, popped+1)
			}
			q := r.pop()
			popped++
			if q.env.Seq != popped {
				t.Fatalf("pop seq = %d, want %d", q.env.Seq, popped)
			}
		}
	}
	push(3)
	pop(2)
	push(9) // forces growth with wrapped head
	pop(8)
	push(30) // second growth
	pop(int(next - popped))
	if r.n != 0 || r.peek() != nil {
		t.Fatalf("ring not empty after draining: n=%d", r.n)
	}
}
