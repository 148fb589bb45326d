package engine

import (
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vt"
	"repro/internal/wal"
)

// corruptLog wraps a wal.Log and swaps the payload of one input record on
// read, modeling stable-storage corruption (or any nondeterministic replay
// divergence) that the audit chain must catch.
type corruptLog struct {
	wal.Log
	source  string
	seq     uint64
	payload any
}

func (c *corruptLog) Inputs(source string, fromSeq uint64) ([]wal.InputRecord, error) {
	recs, err := c.Log.Inputs(source, fromSeq)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		if recs[i].Source == c.source && recs[i].Seq == c.seq {
			recs[i].Payload = c.payload
		}
	}
	return recs, nil
}

// singleTopo builds source → count → sink on one engine, so a corrupted
// replayed input faults exactly once (no downstream component re-derives a
// chain over the diverged outputs).
func singleTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	b.AddComponent("count")
	b.AddSource("in", "count", "in")
	b.AddSink("out", "count", "out")
	b.PlaceAll("A")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func countFaults(events []trace.Event) []trace.Event {
	var faults []trace.Event
	for _, ev := range events {
		if ev.Kind == trace.EvDeterminismFault {
			faults = append(faults, ev)
		}
	}
	return faults
}

// TestReplayDivergenceFaultsOnce corrupts one logged input payload between
// crash and recovery and requires the determinism audit to flag exactly one
// fault, at the corrupted record's virtual time — and to resynchronize so
// the rest of the replay verifies clean.
func TestReplayDivergenceFaultsOnce(t *testing.T) {
	tp := singleTopo(t)
	log := wal.NewMemLog()
	store := checkpoint.NewReplicaStore()
	rec := trace.NewRecorder(0)
	audit := sched.NewAuditLog()
	metrics := registryMetrics("A")
	metrics.SetRecorder(rec)
	sink := newSinkCollector()

	cfg := Config{
		Name:       "A",
		Topo:       tp,
		Components: map[string]ComponentSpec{"count": spec(newWordCount(), 50_000)},
		Log:        log,
		Backup:     store,
		Metrics:    metrics,
		Audit:      audit,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	in, _ := e.Source("in")
	for i := 1; i <= 2; i++ {
		if err := in.EmitAt(vt.Time(i*1_000_000), []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}
	in.Quiesce(2_500_000)
	sink.await(t, 2, 10*time.Second)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i <= 4; i++ {
		if err := in.EmitAt(vt.Time(i*1_000_000), []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}
	in.Quiesce(4_500_000)
	sink.await(t, 4, 10*time.Second)
	if faults := countFaults(rec.Events()); len(faults) != 0 {
		t.Fatalf("pre-crash run recorded %d determinism faults", len(faults))
	}

	e.Kill()

	// Recover against a log whose seq-3 record (in the replay suffix, past
	// the checkpoint cursor) now carries a different payload.
	cfg.Log = &corruptLog{Log: log, source: "in", seq: 3, payload: []string{"zzz"}}
	cfg.Components = map[string]ComponentSpec{"count": spec(newWordCount(), 50_000)}
	sink2 := newSinkCollector()
	e2, err := NewFromBackup(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Sink("out", sink2.fn); err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(); err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()

	in2, _ := e2.Source("in")
	in2.Quiesce(4_500_000)
	sink2.await(t, 2, 10*time.Second)

	faults := countFaults(rec.Events())
	if len(faults) != 1 {
		t.Fatalf("replay with one corrupted input recorded %d faults, want exactly 1: %+v", len(faults), faults)
	}
	f := faults[0]
	if f.VT != 3_000_000 {
		t.Errorf("fault VT = %v, want 3000000 (the corrupted record's VT)", f.VT)
	}
	if f.Component != "count" {
		t.Errorf("fault component = %q", f.Component)
	}
	if got := e2.Totals().DeterminismFaults; got != 1 {
		t.Errorf("metrics determinism faults = %d, want 1", got)
	}
}

// TestCleanReplayNoFaults is the control: an uncorrupted crash/recovery
// replays the identical suffix and the audit stays silent.
func TestCleanReplayNoFaults(t *testing.T) {
	tp := singleTopo(t)
	log := wal.NewMemLog()
	store := checkpoint.NewReplicaStore()
	rec := trace.NewRecorder(0)
	audit := sched.NewAuditLog()
	metrics := registryMetrics("A")
	metrics.SetRecorder(rec)
	sink := newSinkCollector()

	cfg := Config{
		Name:       "A",
		Topo:       tp,
		Components: map[string]ComponentSpec{"count": spec(newWordCount(), 50_000)},
		Log:        log,
		Backup:     store,
		Metrics:    metrics,
		Audit:      audit,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	in, _ := e.Source("in")
	for i := 1; i <= 4; i++ {
		if err := in.EmitAt(vt.Time(i*1_000_000), []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			in.Quiesce(2_500_000)
			sink.await(t, 2, 10*time.Second)
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	in.Quiesce(4_500_000)
	sink.await(t, 4, 10*time.Second)
	e.Kill()

	cfg.Components = map[string]ComponentSpec{"count": spec(newWordCount(), 50_000)}
	sink2 := newSinkCollector()
	e2, err := NewFromBackup(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Sink("out", sink2.fn); err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(); err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()
	in2, _ := e2.Source("in")
	in2.Quiesce(4_500_000)
	sink2.await(t, 2, 10*time.Second)

	if faults := countFaults(rec.Events()); len(faults) != 0 {
		t.Errorf("clean replay recorded %d determinism faults: %+v", len(faults), faults)
	}
	if got := e2.Totals().DeterminismFaults; got != 0 {
		t.Errorf("metrics determinism faults = %d, want 0", got)
	}
}
