package main

import (
	"strings"
	"testing"
	"time"

	tart "repro"
)

// The live claims below held on seeds 1–3 in repeated one-second runs on a
// 2-vCPU machine, also while other race-detector test binaries loaded it
// (EXPERIMENTS.md); each test runs seed 1. The paper's other §III claims,
// and the dumb estimator's lower pessimism share, which a loaded machine
// reverses, stay commands: tartdist -exp fig3|dumb|fig4|throughput.

// TestSlowSenderDrawsTheBlame: with sender2 eight times slower, the
// merger's pessimism episodes are blamed on sender2's wire (the model put
// 89 % there; quiet live runs gave 86–92 %, loaded ones down to 72 %).
func TestSlowSenderDrawsTheBlame(t *testing.T) {
	w := paperWorkload(1, time.Second, 9)
	w.rates[1] /= 8
	w.perSender[1] /= 8
	w.spans = 0
	res, err := runTART(w, 39620)
	if err != nil {
		t.Fatal(err)
	}
	var fast, slow float64
	for wire, r := range res.wires {
		switch {
		case strings.HasSuffix(wire, "sender1.out>merger.s1"):
			fast = r.blameSum
		case strings.HasSuffix(wire, "sender2.out>merger.s2"):
			slow = r.blameSum
		}
	}
	share := slow / (fast + slow)
	t.Logf("slow sender's share of the blamed time: %.0f%%", 100*share)
	if !(share > 0.6) {
		t.Errorf("slow sender's wire drew %.0f%% of the blamed time (%.1f ms of %.1f ms), want most of it",
			100*share, 1e3*slow, 1e3*(fast+slow))
	}
}

// TestLazySilenceFarSlowerThanCuriosity is Figure 5's shape: lazy silence
// propagation waits for the other sender's next message, curiosity asks
// for silence. It compares medians, which one descheduled delivery on a
// loaded machine cannot move, over Poisson sources: with Figure 5's
// simultaneous constant-gap emissions half the messages wait a whole gap
// and half do not, so the median sits on that edge.
func TestLazySilenceFarSlowerThanCuriosity(t *testing.T) {
	w := workload{
		perSender: [2]int{50, 50},
		rates:     [2]float64{200, 200},
		poisson:   true,
		seed:      1,
		senderEst: tart.WithConstantCost(50 * time.Microsecond),
		mergerEst: tart.WithConstantCost(100 * time.Microsecond),
	}
	p50 := map[tart.SilenceStrategy]time.Duration{}
	for i, s := range []tart.SilenceStrategy{tart.Lazy, tart.Curiosity} {
		w.strategy = s
		res, err := runTART(w, 39650+4*i)
		if err != nil {
			t.Fatal(err)
		}
		p50[s] = summary(res.lat).Quantile(0.5)
	}
	lazy, cur := p50[tart.Lazy], p50[tart.Curiosity]
	t.Logf("median latency: lazy %v, curiosity %v", lazy, cur)
	if lazy < 3*cur {
		t.Errorf("median latency: lazy %v, curiosity %v; want lazy at least 3x", lazy, cur)
	}
}
