package engine

import (
	"testing"
	"time"
)

// TestPeerHealthTracksConnectivity verifies the failure-detection signal:
// peers show Connected with a fresh LastHeard while both engines live, and
// disconnected after one is killed.
func TestPeerHealthTracksConnectivity(t *testing.T) {
	c := startTwoEngines(t, withRegistry)
	defer func() { c.engA.Stop() }()

	// Single-engine placements have no peers; the split one has exactly one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := c.engA.PeerHealth()
		if len(h) != 1 {
			t.Fatalf("engine A peers = %v", h)
		}
		if h["B"].Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A never connected to B")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Heartbeats keep LastHeard fresh.
	time.Sleep(50 * time.Millisecond)
	before := c.engA.PeerHealth()["B"].LastHeard
	if before.IsZero() {
		// Heartbeat cadence defaults to 250ms; force one by waiting.
		time.Sleep(300 * time.Millisecond)
		before = c.engA.PeerHealth()["B"].LastHeard
		if before.IsZero() {
			t.Fatal("LastHeard never advanced")
		}
	}

	// Kill B: A's connection must drop (suspicion signal for a monitor).
	c.engB.Kill()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if !c.engA.PeerHealth()["B"].Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A still reports B connected after kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSingleEngineHasNoPeers checks the trivial health report.
func TestSingleEngineHasNoPeers(t *testing.T) {
	tp := fig1Topo(t, false)
	e, err := New(Config{Name: "A", Topo: tp, Components: fig1Specs()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if h := e.PeerHealth(); len(h) != 0 {
		t.Errorf("single-engine peers = %v", h)
	}
}
