package engine

import (
	"maps"
	"time"

	"repro/internal/msg"
)

// Counts is what an engine incarnation counted since it was built, beside
// its schedulers' (sched.Scheduler.Counts). Like theirs, the counts are kept
// whether or not an observer is attached, and a reader pulls them.
type Counts struct {
	// FullCheckpoints and DeltaCheckpoints count the checkpoints the backup
	// took, by kind (full if every component shipped its whole state);
	// CheckpointBytes sums their handler-state bytes.
	FullCheckpoints, DeltaCheckpoints, CheckpointBytes uint64
	// Failovers counts activations of this incarnation from its replica.
	Failovers uint64
	// ReplayRequests counts the replay ranges this engine asked senders for,
	// and ReplayServes those it re-sent at a peer's request, by wire.
	ReplayRequests, ReplayServes map[msg.WireID]uint64
	// ChainMismatches counts restored components whose audit chain differs
	// from the record, by component.
	ChainMismatches map[string]uint64
	// Sources holds each hosted source's counts.
	Sources []SourceCounts
}

// SourceCounts is what one source counted: inputs logged and injected,
// inputs shed at the buffered-state bound, silence promises it pushed, and
// logged records a cold restart re-injected.
type SourceCounts struct {
	Name                                     string
	Wire                                     msg.WireID
	Emits, Shed, Silences, ColdStartReplayed uint64
}

// Counts copies the engine's counts.
func (e *Engine) Counts() Counts {
	e.countsMu.Lock()
	c := e.counts
	c.ReplayRequests = maps.Clone(c.ReplayRequests)
	c.ReplayServes = maps.Clone(c.ReplayServes)
	c.ChainMismatches = maps.Clone(c.ChainMismatches)
	e.countsMu.Unlock()
	for _, s := range e.sortedSources() {
		s.mu.Lock()
		c.Sources = append(c.Sources, s.counts)
		s.mu.Unlock()
	}
	return c
}

// count updates the engine's counts under their lock.
func (e *Engine) count(update func(c *Counts)) {
	e.countsMu.Lock()
	update(&e.counts)
	e.countsMu.Unlock()
}

// bump adds one to key's count in *m, making the map on first use.
func bump[K comparable](m *map[K]uint64, key K) {
	if *m == nil {
		*m = make(map[K]uint64)
	}
	(*m)[key]++
}

// Totals is an engine incarnation's counts summed over its wires, sources
// and components: the paper-level figures a cluster reports per engine.
type Totals struct {
	Delivered         int64         // messages delivered to handlers
	OutOfOrder        int64         // deliveries that arrived out of real-time order
	ProbesSent        int64         // curiosity probes sent to senders
	SilencesSent      int64         // silence promises by components and sources
	PessimismDelay    time.Duration // real time deliverable messages waited for silence
	PessimismEpisodes int64         // deliveries that waited
	Checkpoints       int64         // checkpoints taken, full and delta
	CheckpointBytes   int64         // their handler-state bytes
	ReplayRequests    int64         // replay ranges served at a peer's request
	DuplicatesDropped int64         // duplicate and hold-back-overflow drops
	DeterminismFaults int64         // recalibrations, replay divergences and chain mismatches
	Failovers         int64         // activations from the replica
}

// Totals folds the engine's and its schedulers' counts.
func (e *Engine) Totals() Totals {
	c := e.Counts()
	t := Totals{
		Checkpoints:     int64(c.FullCheckpoints + c.DeltaCheckpoints),
		CheckpointBytes: int64(c.CheckpointBytes),
		Failovers:       int64(c.Failovers),
	}
	for _, n := range c.ReplayServes {
		t.ReplayRequests += int64(n)
	}
	for _, n := range c.ChainMismatches {
		t.DeterminismFaults += int64(n)
	}
	for _, s := range c.Sources {
		t.SilencesSent += int64(s.Silences)
	}
	for _, h := range e.sortedHosted() {
		sc := h.sch.Counts()
		t.DeterminismFaults += int64(sc.Divergences + sc.Recalibrations)
		for _, n := range sc.ReplyDups {
			t.DuplicatesDropped += int64(n)
		}
		for _, w := range sc.Wires {
			t.Delivered += int64(w.Delivered)
			t.OutOfOrder += int64(w.OutOfOrder)
			t.ProbesSent += int64(w.Probes)
			t.SilencesSent += int64(w.Silences)
			t.PessimismDelay += time.Duration(w.PessimismNanos)
			t.PessimismEpisodes += int64(w.PessimismEpisodes)
			t.DuplicatesDropped += int64(w.Duplicates + w.HoldbackDrops)
		}
	}
	return t
}
