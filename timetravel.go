package tart

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"

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
}

// WithTimeTravel enables the time-travel inspector: every checkpoint is
// archived as a rewind point (a delta checkpoint keeps the points it
// extends alive, back to its full capture) and the engine's WAL appends
// are retained until no archived point needs them.
// Cluster.RewindRun, Bisect and RewindPoints answer state questions about
// the past; `tartctl rewind`/`tartctl bisect` and the /rewind debug
// endpoint expose the same over HTTP.
//
// Like WithSupervisor, enabling time travel takes an initial checkpoint of
// every engine at launch so the archive always has a rewind point.
func WithTimeTravel(cfg TimeTravel) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.timetravel = &cfg })
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
func (c *Cluster) rewindInfo(q url.Values) (any, error) {
	insp := c.insp // set whenever the listener serves /rewind
	op := q.Get("op")
	if op == "" {
		op = "state"
	}
	if op == "points" {
		return insp.Points(), nil
	}
	comp := q.Get("component")
	if comp == "" {
		return nil, errors.New("component parameter required")
	}
	switch op {
	case "state":
		t, err := parseVTParam(q.Get("vt"), "vt")
		if err != nil {
			return nil, err
		}
		return insp.StateAt(comp, t)
	case "diff":
		a, err := parseVTParam(q.Get("vt1"), "vt1")
		if err != nil {
			return nil, err
		}
		b, err := parseVTParam(q.Get("vt2"), "vt2")
		if err != nil {
			return nil, err
		}
		return insp.Diff(comp, a, b)
	case "bisect":
		return insp.Bisect(comp)
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
