package trace

import (
	"sync"
	"testing"
	"time"
)

// TestMetricsCounters checks that Snapshot folds each family it reports
// across every label set.
func TestMetricsCounters(t *testing.T) {
	var m Metrics
	if s := m.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("registry-less snapshot = %+v, want zero", s)
	}
	reg := NewRegistry(L("engine", "e"))
	m.SetRegistry(reg)
	a, b := reg.InWire("c", "w0"), reg.InWire("c", "w1")
	a.Delivered.Inc()
	b.Delivered.Inc()
	b.OutOfOrder.Inc()
	a.Probes.Inc()
	reg.Silences("c", "w2").Inc()
	reg.Silences("src", "w0").Inc()
	a.Pessimism.Observe((5 * time.Millisecond).Seconds())
	b.Pessimism.Observe(0) // zero-delay episode still counts
	cm := reg.Checkpoint()
	cm.Applied(true, 1, 1000, 0)
	cm.Applied(false, 2, 24, 0)
	reg.Counter(MetricReplayServes, "", L("wire", "w0")).Inc()
	reg.Counter(MetricReplayRequests, "", L("wire", "w0")).Inc() // issued, not served: not counted
	a.Duplicates.Inc()
	b.HoldbackDrops.Inc()
	reg.Duplicates("c", "w3").Inc()
	reg.DeterminismFaults("c", "replay-divergence").Inc()
	reg.DeterminismFaults("c", "recalibration").Inc()
	reg.Counter(MetricFailovers, "").Inc()

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
	if s.ReplayRequests != 1 || s.DuplicatesDropped != 3 || s.DeterminismFaults != 2 || s.Failovers != 1 {
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
			in := reg.InWire("c", string(rune('a'+i)))
			for j := 0; j < per; j++ {
				in.Delivered.Inc()
				if j%2 == 0 {
					in.OutOfOrder.Inc()
				}
				in.Probes.Inc()
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
