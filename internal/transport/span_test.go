package transport

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/trace/span"
	"repro/internal/vt"
)

// TestTCPLingerSpans checks that envelopes which sit in the coalescing
// buffer get a PhaseLinger span covering their wait, completed when the
// flusher drains the window, while inline-flushed envelopes (idle window)
// produce none.
func TestTCPLingerSpans(t *testing.T) {
	spans := span.NewCollector("test", 0, 1)
	client, server, cleanup := tcpPair(t, TCP{FlushDelay: 2 * time.Millisecond, Spans: spans})
	defer cleanup()

	const n = 50
	recvd := make(chan struct{}, n)
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				return
			}
			recvd <- struct{}{}
		}
	}()
	// A tight burst: the first Send hits the idle window and flushes
	// inline (no linger), the rest arm the window and linger.
	for i := 1; i <= n; i++ {
		env := msg.NewData(1, uint64(i), vt.Time(i*10), nil)
		env.Origin = msg.NewOrigin(1, uint64(i))
		if err := client.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-recvd:
		case <-time.After(10 * time.Second):
			t.Fatalf("envelope %d never arrived", i+1)
		}
	}

	got := spans.Spans()
	if len(got) == 0 {
		t.Fatal("burst through a 2ms window produced no linger spans")
	}
	if len(got) >= n {
		t.Fatalf("%d linger spans for %d sends: inline-flushed envelopes must not linger", len(got), n)
	}
	for _, s := range got {
		if s.Phase != span.PhaseLinger {
			t.Fatalf("transport recorded phase %v, want linger", s.Phase)
		}
		if s.Origin == 0 {
			t.Fatal("linger span lost its origin")
		}
		if !s.End.After(s.Start) && !s.End.Equal(s.Start) {
			t.Fatalf("linger span ends (%v) before it starts (%v)", s.End, s.Start)
		}
		if s.Duration() > time.Second {
			t.Fatalf("linger span lasted %v — far beyond the 2ms window", s.Duration())
		}
	}
}

// TestTCPLingerSpansSkipUnsampled checks that the transport honors the
// collector's head-sampling decision: origins outside the sample get no
// linger spans even when they linger.
func TestTCPLingerSpansSkipUnsampled(t *testing.T) {
	spans := span.NewCollector("test", 0, 1)
	client, server, cleanup := tcpPair(t, TCP{FlushDelay: 2 * time.Millisecond, Spans: spans})
	defer cleanup()

	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				return
			}
		}
	}()
	// Zero origin = unknown provenance: never sampled, regardless of rate.
	for i := 1; i <= 20; i++ {
		if err := client.Send(msg.NewData(1, uint64(i), vt.Time(i*10), nil)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if got := len(spans.Spans()); got != 0 {
		t.Fatalf("unsampled origins produced %d linger spans, want 0", got)
	}
}
