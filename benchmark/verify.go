package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	tart "repro"
)

const (
	probeRounds = 1000 // two messages per round
	probeKeys   = 64
)

// replayProbe runs the pipeline twice under a manual clock with explicit
// virtual times — once clean, once with engine e1 failed and recovered in
// mid-stream — and returns the SHA-256 of each deduplicated output tape
// (sequence number, virtual time, key and stamped count of every output).
// Deterministic replay means the two digests are equal.
func replayProbe(seed uint64) (clean, faulted string, err error) {
	if clean, err = probeTape(seed, false); err != nil {
		return "", "", fmt.Errorf("replay probe (clean): %w", err)
	}
	if faulted, err = probeTape(seed, true); err != nil {
		return "", "", fmt.Errorf("replay probe (faulted): %w", err)
	}
	return clean, faulted, nil
}

func probeTape(seed uint64, fault bool) (string, error) {
	cluster, err := tart.Launch(buildApp(seed, probeKeys),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }))
	if err != nil {
		return "", err
	}
	defer cluster.Stop()
	if err := waitLinked(cluster); err != nil {
		return "", err
	}

	const want = 2 * probeRounds
	h := sha256.New()
	var n atomic.Int64
	done := make(chan struct{})
	err = cluster.Sink("out", tart.DedupOutputs(func(o tart.Output) {
		req, _ := o.Payload.(Req)
		var rec [32]byte
		binary.LittleEndian.PutUint64(rec[0:], o.Seq)
		binary.LittleEndian.PutUint64(rec[8:], uint64(o.VT))
		binary.LittleEndian.PutUint64(rec[16:], req.Key)
		binary.LittleEndian.PutUint64(rec[24:], req.Count)
		h.Write(rec[:])
		if n.Add(1) == want {
			close(done)
		}
	}))
	if err != nil {
		return "", err
	}
	var srcs [2]*tart.Source
	for i, name := range []string{"in0", "in1"} {
		if srcs[i], err = cluster.Source(name); err != nil {
			return "", err
		}
	}
	for r := 0; r < probeRounds; r++ {
		base := tart.VirtualTime((r + 1) * 1_000_000)
		key := splitmix(seed+uint64(r)) % probeKeys
		if err := srcs[0].EmitAt(base, Req{Key: key}); err != nil {
			return "", err
		}
		if err := srcs[1].EmitAt(base+333_000, Req{Key: (key + 7) % probeKeys}); err != nil {
			return "", err
		}
		for _, s := range srcs {
			if err := s.Quiesce(base + 500_000); err != nil {
				return "", err
			}
		}
		if !fault {
			continue
		}
		switch r {
		case probeRounds / 4:
			if _, err := cluster.Checkpoint(engShards); err != nil {
				return "", err
			}
		case probeRounds / 2:
			if err := cluster.Fail(engShards); err != nil {
				return "", err
			}
			if err := cluster.Recover(engShards); err != nil {
				return "", err
			}
			if err := waitLinked(cluster); err != nil {
				return "", err
			}
		}
	}
	for _, s := range srcs {
		if err := s.End(); err != nil {
			return "", err
		}
	}
	select {
	case <-done:
	case <-time.After(drainTimeout):
		return "", fmt.Errorf("timed out at %d of %d outputs", n.Load(), want)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// waitLinked waits until every engine reports every peer connected. Launch,
// Recover and Reopen return before the engines have dialled each other.
// Data sent over a link that is not up yet is buffered and replayed, but
// silence promises are not: the one final promise End sends is lost, and a
// single-input component never probes for it again. So the harness starts
// and ends streams only over whole links.
func waitLinked(cluster *tart.Cluster) error {
	deadline := time.Now().Add(drainTimeout)
	for {
		linked := true
		for _, e := range cluster.Engines() {
			// An engine that is down (a supervisor may be mid-recovery)
			// reports an error: not linked yet, not a reason to give up.
			health, err := cluster.Health(e)
			linked = linked && err == nil
			for _, h := range health {
				linked = linked && h.Connected
			}
		}
		if linked {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engines not reconnected within %v", drainTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
