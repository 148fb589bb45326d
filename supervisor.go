package tart

import (
	"sync"
	"time"
)

// SupervisorConfig tunes the automatic failover supervisor (see
// WithSupervisor). Zero values pick defaults.
type SupervisorConfig struct {
	// SuspectAfter is the heartbeat-silence window: an engine is suspected
	// fail-stopped once every live peer has heard nothing from it for this
	// long (engines without peers fall back to local liveness). Default
	// 750ms — comfortably above the engine heartbeat cadence.
	SuspectAfter time.Duration
	// PollEvery is the detector's polling period. Default SuspectAfter/5,
	// floored at 10ms.
	PollEvery time.Duration
	// Cooldown is the minimum gap between failovers of the same engine,
	// giving a fresh incarnation time to re-handshake before its silence
	// can be re-suspected. Default 2×SuspectAfter.
	Cooldown time.Duration
}

func (s SupervisorConfig) withDefaults() SupervisorConfig {
	if s.SuspectAfter <= 0 {
		s.SuspectAfter = 750 * time.Millisecond
	}
	if s.PollEvery <= 0 {
		s.PollEvery = s.SuspectAfter / 5
		if s.PollEvery < 10*time.Millisecond {
			s.PollEvery = 10 * time.Millisecond
		}
	}
	if s.Cooldown <= 0 {
		s.Cooldown = 2 * s.SuspectAfter
	}
	return s
}

// FailoverRecord describes one supervisor-driven failover.
type FailoverRecord struct {
	Engine        string        `json:"engine"`
	Generation    uint64        `json:"generation"` // incarnation brought up
	Cause         string        `json:"cause"`      // "peer-silence" | "liveness" | "fail-stop"
	SuspectedAt   time.Time     `json:"suspectedAt"`
	RecoveredAt   time.Time     `json:"recoveredAt"`
	TimeToRecover time.Duration `json:"timeToRecover"`
	Err           string        `json:"err,omitempty"` // non-empty when recovery failed
}

// SupervisorStatus is a snapshot of the supervisor's activity, served at
// each engine's /supervisor debug endpoint and via
// Cluster.SupervisorStatus.
type SupervisorStatus struct {
	Enabled      bool             `json:"enabled"`
	SuspectAfter time.Duration    `json:"suspectAfter"`
	Suspicions   uint64           `json:"suspicions"`
	Failovers    []FailoverRecord `json:"failovers,omitempty"`
}

// maxFailoverRecords bounds the retained failover history.
const maxFailoverRecords = 64

// supervisor is the cluster's failure detector + recovery driver. It polls
// each engine's peers for heartbeat silence; once every live peer has been
// silent past the suspicion window (or, with no peers to vote, once the
// engine itself reports dead), it drives Fail→Recover. Detection can
// false-positive — a stalled-but-alive engine gets needlessly replaced —
// and that is fine: recovery is deterministic and generation fencing locks
// the replaced incarnation out, so a wrong call costs latency, never
// correctness. The cluster's control plane runs tick every PollEvery.
type supervisor struct {
	c   *Cluster
	cfg SupervisorConfig

	mu         sync.Mutex
	suspicions uint64
	records    []FailoverRecord
	lastAction map[string]time.Time
}

func (s *supervisor) tick() {
	for _, name := range s.c.Engines() {
		if s.inCooldown(name) {
			continue
		}
		if cause, suspect := s.suspect(name); suspect {
			s.failover(name, cause)
		}
	}
}

func (s *supervisor) inCooldown(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	last, ok := s.lastAction[name]
	return ok && time.Since(last) < s.cfg.Cooldown
}

// suspect decides whether the named engine should be failed over, and why.
// The vote is peer-based: any live peer holding an open connection (or
// having heard from the engine within the suspicion window) absolves it.
// Only when every live peer reports prolonged silence — or no peer can
// vote at all and the engine itself reports dead — is it suspected.
func (s *supervisor) suspect(name string) (string, bool) {
	s.c.mu.Lock()
	slot, ok := s.c.engines[name]
	if !ok || s.c.closed {
		s.c.mu.Unlock()
		return "", false
	}
	eng, failed := slot.eng, slot.failed
	s.c.mu.Unlock()

	if failed {
		// Operator-declared (Cluster.Fail) or a previous recovery attempt
		// that errored out: nothing to detect, just drive the recovery.
		return "fail-stop", true
	}

	voters := 0
	for _, p := range s.c.peers[name] {
		s.c.mu.Lock()
		ps, ok := s.c.engines[p]
		if !ok || ps.failed {
			s.c.mu.Unlock()
			continue
		}
		peng, pstarted := ps.eng, ps.startedAt
		s.c.mu.Unlock()
		if !peng.Alive() {
			continue
		}
		ph, ok := peng.PeerHealth()[name]
		if !ok {
			continue
		}
		if ph.Connected {
			return "", false // a live connection is proof of life
		}
		last := ph.LastHeard
		if last.IsZero() {
			// Never heard: silence clock starts at the voter's own birth.
			last = pstarted
		}
		if time.Since(last) <= s.cfg.SuspectAfter {
			return "", false // recent word absolves
		}
		voters++
	}
	if voters > 0 {
		return "peer-silence", true
	}
	// No peer could vote (single-engine cluster, or every peer is itself
	// down): fall back to the engine's local liveness.
	if !eng.Alive() {
		return "liveness", true
	}
	return "", false
}

// failover drives Fail→Recover for a suspected engine and records the
// outcome. A failed recovery leaves the slot failed; the next tick past
// the cooldown retries it.
func (s *supervisor) failover(name, cause string) {
	suspectedAt := time.Now()
	s.mu.Lock()
	s.suspicions++
	s.lastAction[name] = suspectedAt
	s.mu.Unlock()
	s.c.ctl.suspicions(name, cause).Inc()

	if cause != "fail-stop" {
		if err := s.c.Fail(name); err != nil {
			return
		}
	}
	err := s.c.Recover(name)
	recoveredAt := time.Now()

	rec := FailoverRecord{
		Engine:        name,
		Cause:         cause,
		SuspectedAt:   suspectedAt,
		RecoveredAt:   recoveredAt,
		TimeToRecover: recoveredAt.Sub(suspectedAt),
	}
	s.c.mu.Lock()
	if slot, ok := s.c.engines[name]; ok {
		rec.Generation = slot.gen
	}
	s.c.mu.Unlock()
	if err != nil {
		rec.Err = err.Error()
	} else {
		s.c.ctl.failovers(name).Inc()
		s.c.ctl.timeToRecover(name).Observe(rec.TimeToRecover.Seconds())
	}

	s.mu.Lock()
	s.records = append(s.records, rec)
	if len(s.records) > maxFailoverRecords {
		s.records = s.records[len(s.records)-maxFailoverRecords:]
	}
	s.lastAction[name] = time.Now()
	s.mu.Unlock()
}

func (s *supervisor) status() SupervisorStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SupervisorStatus{
		Enabled:      true,
		SuspectAfter: s.cfg.SuspectAfter,
		Suspicions:   s.suspicions,
		Failovers:    append([]FailoverRecord(nil), s.records...),
	}
}
