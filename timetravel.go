package tart

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/inspect"
	"repro/internal/vt"
)

// TimeTravel configures the cluster's time-travel inspector (see
// WithTimeTravel): a bounded archive of rewind points (checkpoints plus
// the WAL records a replay from each needs) and a sandboxed replay engine
// that reconstructs any component's state at any archived virtual time.
type TimeTravel struct {
	// History is how many rewind points are retained per engine; evicting a
	// point also discards the retained inputs only it needed. Default 64.
	History int
	// CheckpointEveryVT, when > 0, checkpoints an engine whenever its
	// virtual-time frontier runs this many ticks past its newest
	// checkpoint. This bounds every rewind's replay distance by one
	// interval in the determinism domain — wall-clock cadences
	// (WithCheckpointEvery) bound replay only as a function of load.
	// It also keeps rewind points VT-aligned across engines, which is what
	// lets a multi-engine reconstruction bridge cross-engine wires.
	CheckpointEveryVT Ticks
	// PollEvery is the VT-cadence loop's clock-sampling interval (default
	// 5ms; only used when CheckpointEveryVT > 0).
	PollEvery time.Duration
	// Timeout bounds each reconstruction's replay (default 30s).
	Timeout time.Duration
}

// WithTimeTravel enables the time-travel inspector: every checkpoint is
// archived as a rewind point (a delta checkpoint keeps the points it
// extends alive, back to its full capture) and the engine's WAL appends
// are retained until no archived point needs them.
// Cluster.Rewind/RewindDiff/Bisect/RewindRun answer state questions about
// the past, `tartctl rewind`/`tartctl bisect` and the /rewind debug
// endpoint expose the same over HTTP.
//
// Like WithSupervisor, enabling time travel takes an initial checkpoint of
// every engine at launch so the archive always has a rewind point.
func WithTimeTravel(cfg TimeTravel) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		tt := cfg
		c.timetravel = &tt
	})
}

// WithCheckpointEveryVT enables time travel with a virtual-time checkpoint
// cadence: a rewind point every interval ticks of VT, bounding every
// reconstruction's replay to one interval. Shorthand for WithTimeTravel;
// combine with WithTimeTravel to also set History or Timeout (the cadence
// set last wins).
func WithCheckpointEveryVT(interval Ticks) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		if c.timetravel == nil {
			c.timetravel = &TimeTravel{}
		}
		c.timetravel.CheckpointEveryVT = interval
	})
}

// RewindState is a component's reconstructed state at a virtual time.
type RewindState = inspect.State

// RewindDiff compares one component's reconstructed states at two VTs.
type RewindDiff = inspect.Diff

// RewindOptions parameterizes a full reconstruction run (RewindRun),
// including state watchpoints.
type RewindOptions = inspect.Options

// RewindResult is a full reconstruction run's output.
type RewindResult = inspect.Result

// RewindPoint describes one archived rewind point.
type RewindPoint = inspect.PointInfo

// RewindWatchHit reports the first replayed delivery at which a state
// watchpoint predicate fired.
type RewindWatchHit = inspect.WatchHit

// StatePredicate is a state watchpoint evaluated during replay.
type StatePredicate = inspect.Predicate

// BisectReport localizes the first divergent delivery of a replay against
// the live run's determinism audit record.
type BisectReport = inspect.BisectReport

// ErrRewindTooOld reports a rewind target older than the oldest retained
// rewind point (test with errors.Is; raise TimeTravel.History or the
// checkpoint cadence to keep more past reachable).
var ErrRewindTooOld = inspect.ErrBeforeHistory

func (c *Cluster) inspector() (*inspect.Inspector, error) {
	if c.insp == nil {
		return nil, errors.New("tart: time travel disabled (enable with WithTimeTravel)")
	}
	return c.insp, nil
}

// Rewind reconstructs the named component's state as of virtual time at:
// the newest archived rewind point at or before the target is restored
// into a sandboxed replay engine and the retained inputs with VT <= at are
// deterministically replayed into it. The live cluster is untouched; the
// replay's outputs are all suppressed.
func (c *Cluster) Rewind(component string, at VirtualTime) (*RewindState, error) {
	insp, err := c.inspector()
	if err != nil {
		return nil, err
	}
	return insp.StateAt(component, at)
}

// RewindDiff reconstructs the named component's state at two virtual times
// and compares them (identical iff the audit chains and counts agree).
func (c *Cluster) RewindDiff(component string, a, b VirtualTime) (*RewindDiff, error) {
	insp, err := c.inspector()
	if err != nil {
		return nil, err
	}
	return insp.Diff(component, a, b)
}

// Bisect replays the named component from the oldest retained rewind point
// and binary-searches the replayed deliveries against the live determinism
// audit chain, pinning the first divergent delivery to an exact (wire,
// seq, VT). Requires WithFlightRecorder (the audit record) in addition to
// WithTimeTravel.
func (c *Cluster) Bisect(component string) (*BisectReport, error) {
	insp, err := c.inspector()
	if err != nil {
		return nil, err
	}
	return insp.Bisect(component)
}

// RewindRun performs a full reconstruction run with explicit options —
// multiple components, pinned rewind points, state watchpoints, delivery
// tapes.
func (c *Cluster) RewindRun(opts RewindOptions) (*RewindResult, error) {
	insp, err := c.inspector()
	if err != nil {
		return nil, err
	}
	return insp.Run(opts)
}

// RewindPoints lists every engine's retained rewind points, oldest first
// (nil without WithTimeTravel).
func (c *Cluster) RewindPoints() map[string][]RewindPoint {
	if c.insp == nil {
		return nil
	}
	return c.insp.Points()
}

// rewindInfo answers /rewind debug-endpoint queries. Supported query
// parameters: op=state|diff|bisect|points (default state), component=NAME,
// vt=TICKS (state), vt1=TICKS&vt2=TICKS (diff).
func (c *Cluster) rewindInfo(q map[string][]string) (any, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	op := get("op")
	if op == "" {
		op = "state"
	}
	if op == "points" {
		return c.RewindPoints(), nil
	}
	comp := get("component")
	if comp == "" {
		return nil, errors.New("component parameter required")
	}
	switch op {
	case "state":
		t, err := parseVTParam(get("vt"), "vt")
		if err != nil {
			return nil, err
		}
		return c.Rewind(comp, t)
	case "diff":
		a, err := parseVTParam(get("vt1"), "vt1")
		if err != nil {
			return nil, err
		}
		b, err := parseVTParam(get("vt2"), "vt2")
		if err != nil {
			return nil, err
		}
		return c.RewindDiff(comp, a, b)
	case "bisect":
		return c.Bisect(comp)
	default:
		return nil, fmt.Errorf("unknown op %q (want state, diff, bisect, or points)", op)
	}
}

func parseVTParam(s, name string) (vt.Time, error) {
	if s == "" {
		return vt.Never, fmt.Errorf("%s parameter required", name)
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return vt.Never, fmt.Errorf("bad %s %q (want integer virtual-time ticks)", name, s)
	}
	return vt.Time(n), nil
}

// vtCheckpointLoop drives the VT-cadence checkpoints: whenever a live
// engine's clock frontier runs CheckpointEveryVT past its newest
// checkpoint, take one. Failures are best-effort — the next tick retries.
func (c *Cluster) vtCheckpointLoop() {
	defer c.bg.Done()
	tt := *c.cfg.timetravel
	poll := tt.PollEvery
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	interval := vt.Ticks(tt.CheckpointEveryVT)
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-c.bgStop:
			return
		case <-t.C:
		}
		// Engine pointers are captured under the lock: Recover swaps
		// slot.eng, and a dying incarnation must not be checkpointed.
		c.mu.Lock()
		engs := make([]*engine.Engine, 0, len(c.engines))
		for _, s := range c.engines {
			if !s.failed {
				engs = append(engs, s.eng)
			}
		}
		c.mu.Unlock()
		for _, eng := range engs {
			if eng.MaxComponentClock() >= eng.LastCheckpointVT().Add(interval) {
				_, _ = eng.Checkpoint()
			}
		}
	}
}
