package trace

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
)

// TestMetricsPushFamilies checks that the reports fill only the push-only
// distributions — pessimism and blame, checkpoint sizes — and no count
// family (the scheduler and the engine keep those), and that they build
// flight events only when a recorder is attached.
func TestMetricsPushFamilies(t *testing.T) {
	var m Metrics
	reg := NewRegistry(L("engine", "e"))
	m.SetRegistry(reg)
	var env msg.Envelope
	a, b := m.Wire("c", "w0", 0, true), m.Wire("c", "w1", 1, true)
	report := func() {
		m.Delivered(a, b, env, 0, 5*time.Millisecond, true) // blamed on w1, diverged
		m.Delivered(b, a, env, 0, 0, false)                 // a zero-delay episode still counts
		m.Delivered(a, nil, env, 0, 0, false)               // no episode
		m.Probe(a, 0)
		m.Silence(m.Wire("c", "w2", 2, false), 0)
		m.SourceSilence(m.Source("src", 0), 0)
		m.Checkpointed(0, 1, true, 1000, 0, 0)
		m.Checkpointed(0, 2, false, 24, 0, 0)
		m.ReplayServed(0, 1, 3, false)
		m.ChainMismatch("c", 0, 7)
		m.Dropped(a, env, true)
		m.DroppedReply("c", env)
		m.Recalibrated("c", 0, errors.New("refused"))
		m.Failover(1)
	}
	report()
	if sum, n := histSum(reg, MetricPessimism); sum != 0.005 || n != 2 {
		t.Errorf("pessimism = %v over %d episodes, want 0.005 over 2", sum, n)
	}
	if sum, n := histSum(reg, MetricBlameSeconds); sum != 0.005 || n != 2 {
		t.Errorf("blame seconds = %v over %d, want 0.005 over 2", sum, n)
	}
	if sum, n := histSum(reg, MetricCheckpointBytes); sum != 1024 || n != 2 {
		t.Errorf("checkpoint bytes = %v over %d, want 1024 over 2", sum, n)
	}
	for _, f := range reg.Gather() {
		switch f.Name {
		case MetricDelivered, MetricOutOfOrder, MetricProbes, MetricSilences, MetricSent,
			MetricDuplicates, MetricHoldbackDrops, MetricBlame, MetricDetFaults,
			MetricCheckpoints, MetricFailovers, MetricReplayServes, MetricReplayRequests:
			t.Errorf("count family %s has a pushed series", f.Name)
		}
	}
	rec := NewRecorder(0)
	m.SetRecorder(rec)
	report()
	if got := rec.Total(); got != 17 {
		t.Errorf("recorded %d events with a recorder, want 17", got)
	}
}

// TestMetricsConcurrent reports from many wires at once: each worker's
// episodes land in its own pessimism series, and the total adds up.
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
				var blamed any
				if j%2 == 0 {
					blamed = in
				}
				m.Delivered(in, blamed, msg.Envelope{}, 0, time.Microsecond, false)
				m.Probe(in, 0)
			}
		}()
	}
	wg.Wait()
	if sum, n := histSum(reg, MetricPessimism); n != workers*per/2 || sum < 0.00399 || sum > 0.00401 {
		t.Errorf("pessimism = %v over %d episodes, want 0.004 over %d", sum, n, workers*per/2)
	}
	if sum, n := histSum(reg, MetricBlameSeconds); n != workers*per/2 || sum < 0.00399 || sum > 0.00401 {
		t.Errorf("blame = %v over %d episodes, want 0.004 over %d", sum, n, workers*per/2)
	}
}

// histSum totals one histogram family across its label sets: the sum of
// its observations and their number.
func histSum(reg *Registry, name string) (sum float64, count int64) {
	for _, f := range reg.Gather() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			sum += s.Hist.Sum
			count += int64(s.Hist.Count)
		}
	}
	return sum, count
}
