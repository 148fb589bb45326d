package chaos

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wal"
)

// TestOracleCleanRun sanity-checks the workload driver: a supervised but
// fault-free run completes with a full, strictly-sequenced tape and no
// failovers.
func TestOracleCleanRun(t *testing.T) {
	res, err := Run(RunOptions{Rounds: 6, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tape) != 12 {
		t.Fatalf("tape has %d outputs, want 12", len(res.Tape))
	}
	for i, rec := range res.Tape {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("output %d has seq %d", i, rec.Seq)
		}
	}
	if res.Supervised != 0 {
		t.Errorf("clean run had %d supervised failovers", res.Supervised)
	}
}

// TestControllerScheduleDeterminism: the same seed yields the same plan.
func TestControllerScheduleDeterminism(t *testing.T) {
	cfg := Config{
		Seed: 42, Engines: ScenarioEngines, Links: ScenarioLinks,
		Crashes: 2, Partitions: 2, WALFaults: 1, DoubleCrashProb: 0.5,
	}
	a, err := NewController(cfg, nil, transport.NewNetem(42), wal.NewInjector())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewController(cfg, nil, transport.NewNetem(42), wal.NewInjector())
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.plan, b.plan
	if len(pa) != 5 {
		t.Fatalf("plan has %d events, want 5", len(pa))
	}
	if pa[0].Kind != EvCrash {
		t.Errorf("first event is %q, want crash", pa[0].Kind)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("plans diverge at %d: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}
