package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vt"
)

// dialRecorder wraps a Transport and timestamps every Dial attempt.
type dialRecorder struct {
	transport.Transport
	mu    sync.Mutex
	times []time.Time
}

func (d *dialRecorder) Dial(addr string) (transport.Conn, error) {
	d.mu.Lock()
	d.times = append(d.times, time.Now())
	d.mu.Unlock()
	return d.Transport.Dial(addr)
}

func (d *dialRecorder) attempts() []time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Time(nil), d.times...)
}

// TestRedialBackoffAndBreaker asserts the rejoin-robustness contract from
// the dialer's side: attempts to a dead peer follow capped exponential
// backoff (the minimum spacing grows, so a long-dead peer is not hammered
// at a fixed cadence), the per-peer circuit breaker opens after the
// failure threshold, keeps re-probing (half-open) forever, and closes
// again the moment the peer comes back — at which point traffic flows.
func TestRedialBackoffAndBreaker(t *testing.T) {
	tp := fig1Topo(t, true) // senders on A, merger on B; A dials B
	net := transport.NewInproc()
	rec := &dialRecorder{Transport: net}
	addrs := map[string]string{"A": "addr-A", "B": "addr-B"}
	specs := fig1Specs()

	const base = 5 * time.Millisecond
	engA, err := New(Config{
		Name: "A",
		Topo: tp,
		Components: map[string]ComponentSpec{
			"sender1": specs["sender1"],
			"sender2": specs["sender2"],
		},
		Transport:   rec,
		Addrs:       addrs,
		RedialEvery: base,
		Metrics:     registryMetrics("A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	defer engA.Stop()

	// B is down. The breaker opens after 5 consecutive dial failures.
	breaker := func() transport.BreakerState { return engA.PeerHealth()["B"].Breaker }
	deadline := time.Now().Add(10 * time.Second)
	for breaker() != transport.BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened; state=%v after %d dials",
				breaker(), len(rec.attempts()))
		}
		time.Sleep(time.Millisecond)
	}
	openAt := len(rec.attempts())
	if openAt < 5 {
		t.Fatalf("breaker opened after %d dials, want >= 5 (threshold)", openAt)
	}

	// Backoff shape: the wait after the k-th failure has a jittered lower
	// bound of base·2ᵏ⁻¹/2, so the span from attempt 1 to attempt 5 is at
	// least 2.5+5+10+20 = 37.5ms — far above the 4×5 = 20ms a fixed-cadence
	// redial would need. (Scheduling noise only widens gaps, so the lower
	// bound is assertion-safe; the jitter distribution itself is pinned by
	// the transport unit tests.)
	at := rec.attempts()
	span := at[4].Sub(at[0])
	if want := 37 * time.Millisecond; span < want {
		t.Fatalf("first five dial attempts spanned %v, want >= %v (exponential backoff)", span, want)
	}
	if gap := at[4].Sub(at[3]); gap < 15*time.Millisecond {
		t.Fatalf("4th->5th dial gap %v, want >= 15ms (4th backoff step's jitter floor is 20ms)", gap)
	}

	// Open is not forever: the breaker half-opens after its cooldown and
	// probes again (a cold-restarting peer must always be rediscoverable).
	deadline = time.Now().Add(10 * time.Second)
	for len(rec.attempts()) == openAt {
		if time.Now().After(deadline) {
			t.Fatal("no probe dial after breaker opened; peer could never rejoin")
		}
		time.Sleep(time.Millisecond)
	}

	// Peer comes back: breaker closes and the pipeline flows end-to-end.
	engB, err := New(Config{
		Name:        "B",
		Topo:        tp,
		Components:  map[string]ComponentSpec{"merger": specs["merger"]},
		Transport:   net,
		Addrs:       addrs,
		RedialEvery: base,
		Metrics:     registryMetrics("B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := newSinkCollector()
	if err := engB.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := engB.Start(); err != nil {
		t.Fatal(err)
	}
	defer engB.Stop()

	deadline = time.Now().Add(10 * time.Second)
	for !engA.PeerHealth()["B"].Connected {
		if time.Now().After(deadline) {
			t.Fatal("A never reconnected to revived B")
		}
		time.Sleep(time.Millisecond)
	}
	if got := breaker(); got != transport.BreakerClosed {
		t.Fatalf("breaker state after reconnect = %v, want closed", got)
	}
	redials := metricsOf(engA).Registry().Counter(trace.MetricRedials,
		"Dial attempts to a peer engine (first dials and redials).",
		trace.L("peer", "B"))
	if redials.Value() < 5 {
		t.Fatalf("tart_redial_attempts_total = %d, want >= 5", redials.Value())
	}

	in1, _ := engA.Source("in1")
	in2, _ := engA.Source("in2")
	if err := in1.EmitAt(1_000_000, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := in2.EmitAt(1_500_000, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	in1.Quiesce(2_000_000)
	in2.Quiesce(2_000_000)
	sink.await(t, 2, 10*time.Second)
}

// TestSourceShedsWhenPeerDownAndBuffersFull asserts graceful degradation:
// with a peer down, replay buffers cannot be trimmed, and once they hit
// ShedBufferedLimit sources fail fast with ErrShed — an explicit, bounded
// refusal the producer can act on — instead of stalling or growing
// without bound. When the peer returns, the backlog drains, trims come
// back, and emission resumes.
func TestSourceShedsWhenPeerDownAndBuffersFull(t *testing.T) {
	tp := fig1Topo(t, true)
	net := transport.NewInproc()
	addrs := map[string]string{"A": "addr-A", "B": "addr-B"}
	specs := fig1Specs()

	const limit = 16
	engA, err := New(Config{
		Name: "A",
		Topo: tp,
		Components: map[string]ComponentSpec{
			"sender1": specs["sender1"],
			"sender2": specs["sender2"],
		},
		Transport:         net,
		Addrs:             addrs,
		RedialEvery:       5 * time.Millisecond,
		GapRepairEvery:    10 * time.Millisecond,
		ShedBufferedLimit: limit,
		Metrics:           registryMetrics("A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	defer engA.Stop()

	// B never comes up: everything A's senders produce for the merger
	// parks in replay buffers, unacked and untrimmable.
	in1, _ := engA.Source("in1")
	var shedErr error
	emitted := 0
	// Deliveries (and therefore replay-buffer appends) happen on the
	// scheduler goroutine, so pace the emits and keep going until the
	// bound bites. The assertion is that it bites at all — bounded-buffer
	// shed, not unbounded growth or a stall.
	deadline := time.Now().Add(15 * time.Second)
	for shedErr == nil {
		if time.Now().After(deadline) {
			t.Fatalf("emitted %d inputs with peer down and limit %d without a shed error", emitted, limit)
		}
		err := in1.EmitAt(vt.Time((emitted+1)*1_000_000), []string{"x"})
		if err == nil {
			emitted++
			time.Sleep(time.Millisecond)
			continue
		}
		shedErr = err
	}
	if !errors.Is(shedErr, ErrShed) {
		t.Fatalf("emit failed with %v, want ErrShed", shedErr)
	}
	var shed uint64
	for _, src := range engA.Counts().Sources {
		if src.Name == "in1" {
			shed = src.Shed
		}
	}
	if shed == 0 {
		t.Fatal("tart_source_shed_total did not count the refusal")
	}

	// The refusal was clean: nothing about the shed input entered the
	// system, so the SAME virtual time can be re-emitted once the peer is
	// back and the backlog has drained.
	// B checkpoints frequently: each checkpoint acks what it covered, and
	// those stability acks are what trim A's replay buffers back under the
	// limit.
	engB, err := New(Config{
		Name:            "B",
		Topo:            tp,
		Components:      map[string]ComponentSpec{"merger": specs["merger"]},
		Transport:       net,
		Addrs:           addrs,
		RedialEvery:     5 * time.Millisecond,
		GapRepairEvery:  10 * time.Millisecond,
		CheckpointEvery: 10 * time.Millisecond,
		Backup:          checkpoint.NewReplicaStore(),
		Metrics:         registryMetrics("B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := newSinkCollector()
	if err := engB.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := engB.Start(); err != nil {
		t.Fatal(err)
	}
	defer engB.Stop()

	// The merger can only deliver (and B only cover by checkpoint) what
	// both streams allow: declare in2 permanently silent so the in1
	// backlog drains.
	in2, _ := engA.Source("in2")
	in2.End()

	retryVT := vt.Time((emitted + 1) * 1_000_000)
	deadline = time.Now().Add(15 * time.Second)
	for {
		err := in1.EmitAt(retryVT, []string{"x"})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrShed) {
			t.Fatalf("retry emit failed with non-shed error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("emission never resumed after peer recovery (still shedding, %d buffered)", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	in1.Quiesce(retryVT + 1)
	sink.await(t, emitted+1, 15*time.Second)
}
