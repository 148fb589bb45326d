package trace

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
)

// TestMetricsCounters checks that the scheduler's and the engine's reports
// land in the families Snapshot folds, across every label set.
func TestMetricsCounters(t *testing.T) {
	var m Metrics
	if s := m.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("registry-less snapshot = %+v, want zero", s)
	}
	reg := NewRegistry(L("engine", "e"))
	m.SetRegistry(reg)
	var env msg.Envelope
	a, b := m.Wire("c", "w0", 0, true), m.Wire("c", "w1", 1, true)
	m.Delivered(a, b, env, 0, 5*time.Millisecond, false, true) // blamed on w1, diverged
	m.Delivered(b, a, env, 0, 0, true, false)                  // zero-delay episode still counts
	m.Probe(a, 0)
	m.Silence(m.Wire("c", "w2", 2, false), 0)
	m.SourceSilence(m.Source("src", "w0", 0), 0, false)
	m.Checkpointed(0, 1, true, 1000, 0, 0)
	m.Checkpointed(0, 2, false, 24, 0, 0)
	m.ReplayServed(0, "w0", 1, 3, false)
	m.ReplayServed(0, "w0", 1, 3, true) // a local re-delivery: not counted
	m.ReplayRequested(0, "w0", 1)       // issued, not served: not counted
	m.ChainMismatch("c", 0, 7)
	m.Dropped(a, env, false)
	m.Dropped(b, env, true)
	m.DroppedReply("c", "w3", env)
	m.Recalibrated("c", 0, nil)
	m.Recalibrated("c", 0, errors.New("refused")) // not logged: not counted
	m.Failover(1)

	s := m.Snapshot()
	if s.Delivered != 2 || s.OutOfOrder != 1 {
		t.Errorf("delivered/out-of-order = %d/%d", s.Delivered, s.OutOfOrder)
	}
	if s.ProbesSent != 1 || s.SilencesSent != 2 {
		t.Errorf("probes/silences = %d/%d", s.ProbesSent, s.SilencesSent)
	}
	if s.PessimismDelay != 5*time.Millisecond || s.PessimismEpisodes != 2 {
		t.Errorf("pessimism = %v/%d", s.PessimismDelay, s.PessimismEpisodes)
	}
	if s.Checkpoints != 2 || s.CheckpointBytes != 1024 {
		t.Errorf("checkpoints = %d/%d bytes", s.Checkpoints, s.CheckpointBytes)
	}
	if s.ReplayRequests != 1 || s.DuplicatesDropped != 3 || s.DeterminismFaults != 3 || s.Failovers != 1 {
		t.Errorf("recovery counters = %+v", s)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	var m Metrics
	reg := NewRegistry()
	m.SetRegistry(reg)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker is one scheduler's wire: its own series, resolved once.
			in := m.Wire("c", string(rune('a'+i)), msg.WireID(i), true)
			for j := 0; j < per; j++ {
				m.Delivered(in, nil, msg.Envelope{}, 0, 0, j%2 == 0, false)
				m.Probe(in, 0)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Delivered != workers*per {
		t.Errorf("delivered = %d, want %d", s.Delivered, workers*per)
	}
	if s.OutOfOrder != workers*per/2 {
		t.Errorf("outOfOrder = %d, want %d", s.OutOfOrder, workers*per/2)
	}
	if s.ProbesSent != workers*per {
		t.Errorf("probes = %d", s.ProbesSent)
	}
}
