// Package inspect implements TART's time-travel inspector: VT-indexed
// state reconstruction, divergence bisection, and state watchpoints over
// deterministic replay.
//
// The paper's recovery machinery doubles as a debugger. A checkpoint plus
// the logged external inputs after it determine every component's state at
// every later virtual time — exactly the argument that makes failover
// transparent (§II.F) makes "what was X's state at VT t?" answerable. The
// inspector keeps a bounded history of checkpoints (rewind points) with the
// input-log suffix each needs, and reconstructs state on demand by
// restoring the newest point <= t into a sandboxed engine and replaying the
// retained inputs — with every output suppressed, so nothing the replay
// does (sends, metrics, spans, checkpoints) leaks into the live run.
//
// Replay distance from any target is bounded by the archive's checkpoint
// cadence (Huselius-style starting-point availability): with a point every
// V ticks of virtual time, no reconstruction replays more than one
// interval's deliveries.
package inspect

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/vt"
	"repro/internal/wal"
)

// ErrBeforeHistory is wrapped by reconstruction errors when the requested
// virtual time predates the oldest retained rewind point (the archive's
// bounded history has evicted everything that could reach it). Callers get
// this promptly — never a hang — and can test for it with errors.Is.
var ErrBeforeHistory = errors.New("inspect: target virtual time predates the oldest retained rewind point")

// DefaultHistory is the number of rewind points retained per engine when
// the archive is built with history <= 0.
const DefaultHistory = 64

// PointInfo describes one archived rewind point.
type PointInfo struct {
	Seq   uint64  `json:"seq"`
	VT    vt.Time `json:"vt"`
	Bytes int     `json:"bytes"`
}

// point is one archived rewind point: an encoded checkpoint plus the
// per-source input cursors a replay starting here resumes from. A point
// whose checkpoint carries deltas links to the point it extends, so its
// chain back to a full capture stays reachable — and so retained — for as
// long as the point itself is, however many older points are evicted.
type point struct {
	seq     uint64
	vtime   vt.Time
	data    []byte
	cursors map[string]uint64 // source -> first input seq a replay from here needs
	prev    *point            // the point this one's deltas apply to; nil for a full capture
}

// chain decodes the checkpoints that restore the point, full capture
// first.
func (pt *point) chain() ([]*checkpoint.Checkpoint, error) {
	var out []*checkpoint.Checkpoint
	for p := pt; p != nil; p = p.prev {
		ck, err := checkpoint.Decode(p.data)
		if err != nil {
			return nil, fmt.Errorf("inspect: decoding rewind point seq %d: %w", p.seq, err)
		}
		out = append(out, ck)
	}
	slices.Reverse(out)
	return out, nil
}

// engineArchive is one engine's retained history.
type engineArchive struct {
	points []*point // ascending seq
	inputs map[string][]wal.InputRecord
	faults []wal.FaultRecord
}

// Archive retains, per engine, a bounded ring of rewind points and its own
// copies of the WAL records a replay from any retained point needs. The
// copies are the crux: the live engine trims its stable log as checkpoints
// make inputs unneeded for *recovery*, but time travel needs them until the
// last point that predates them is evicted. Retained inputs are pruned on
// point eviction, so memory is bounded by history x checkpoint interval.
//
// Archive is safe for concurrent use.
type Archive struct {
	history int
	srcOf   map[msg.WireID]string // source wire -> source name

	mu      sync.Mutex
	engines map[string]*engineArchive
}

// NewArchive builds an archive retaining up to history rewind points per
// engine (DefaultHistory when <= 0).
func NewArchive(tp *topo.Topology, history int) *Archive {
	if history <= 0 {
		history = DefaultHistory
	}
	a := &Archive{
		history: history,
		srcOf:   make(map[msg.WireID]string),
		engines: make(map[string]*engineArchive),
	}
	if tp != nil {
		for _, src := range tp.Sources() {
			a.srcOf[src.Wire] = src.Name
		}
	}
	return a
}

func (a *Archive) engineLocked(name string) *engineArchive {
	ea, ok := a.engines[name]
	if !ok {
		ea = &engineArchive{inputs: make(map[string][]wal.InputRecord)}
		a.engines[name] = ea
	}
	return ea
}

// WrapLog returns a Log view of inner that retains a copy of every
// successful append for the named engine. Trims pass through to the inner
// log untouched — the archive prunes its copies on point eviction instead.
func (a *Archive) WrapLog(engineName string, inner wal.Log) wal.Log {
	return &retainLog{a: a, engine: engineName, inner: inner}
}

type retainLog struct {
	a      *Archive
	engine string
	inner  wal.Log
}

var _ wal.Log = (*retainLog)(nil)

func (l *retainLog) AppendInput(rec wal.InputRecord) error {
	if err := l.inner.AppendInput(rec); err != nil {
		return err
	}
	l.a.retainInput(l.engine, rec)
	return nil
}

func (l *retainLog) AppendFault(rec wal.FaultRecord) error {
	if err := l.inner.AppendFault(rec); err != nil {
		return err
	}
	l.a.retainFault(l.engine, rec)
	return nil
}

func (l *retainLog) Inputs(source string, fromSeq uint64) ([]wal.InputRecord, error) {
	return l.inner.Inputs(source, fromSeq)
}

func (l *retainLog) Faults(component string) ([]wal.FaultRecord, error) {
	return l.inner.Faults(component)
}

func (l *retainLog) TrimInputs(source string, throughSeq uint64) error {
	return l.inner.TrimInputs(source, throughSeq)
}

func (l *retainLog) Close() error { return l.inner.Close() }

func (a *Archive) retainInput(engineName string, rec wal.InputRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ea := a.engineLocked(engineName)
	recs := ea.inputs[rec.Source]
	if n := len(recs); n > 0 && rec.Seq <= recs[n-1].Seq {
		return // duplicate append (retry after an injected fault); keep first
	}
	ea.inputs[rec.Source] = append(recs, rec)
}

func (a *Archive) retainFault(engineName string, rec wal.FaultRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ea := a.engineLocked(engineName)
	ea.faults = append(ea.faults, rec)
}

// Tee returns a Backup that forwards checkpoints to inner and, on success,
// archives them as rewind points.
func (a *Archive) Tee(engineName string, inner backupApplier) backupApplier {
	return &teeBackup{a: a, engine: engineName, inner: inner}
}

// backupApplier matches engine.Backup without importing the engine package
// (inspect sits below engine in the dependency order used by the cluster).
type backupApplier interface {
	Apply(c *checkpoint.Checkpoint) error
}

type teeBackup struct {
	a      *Archive
	engine string
	inner  backupApplier
}

func (t *teeBackup) Apply(c *checkpoint.Checkpoint) error {
	if err := t.inner.Apply(c); err != nil {
		return err
	}
	t.a.addPoint(t.engine, c)
	return nil
}

// addPoint archives one checkpoint as a rewind point. A checkpoint
// carrying deltas is kept only if it directly extends the newest archived
// point (it always does unless archiving its predecessor failed); the next
// full capture starts a fresh chain.
func (a *Archive) addPoint(engineName string, c *checkpoint.Checkpoint) {
	data, err := c.Encode()
	if err != nil {
		return // unarchivable; live checkpointing already succeeded
	}
	pt := &point{seq: c.Seq, vtime: c.VT, data: data, cursors: make(map[string]uint64)}
	for _, cs := range c.Components {
		for wid, ist := range cs.Sched.Inputs {
			src, ok := a.srcOf[wid]
			if !ok {
				continue
			}
			pt.cursors[src] = ist.NextSeq
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ea := a.engineLocked(engineName)
	if n := len(ea.points); n > 0 && pt.seq <= ea.points[n-1].seq {
		return // duplicate apply; keep the first
	}
	if !c.IsBase() {
		n := len(ea.points)
		if n == 0 || ea.points[n-1].seq+1 != pt.seq {
			return
		}
		pt.prev = ea.points[n-1]
	}
	ea.points = append(ea.points, pt)
	for len(ea.points) > a.history {
		ea.points[0] = nil // evicted: only points extending it keep it alive
		ea.points = ea.points[1:]
		a.pruneLocked(ea)
	}
}

// pruneLocked discards retained inputs no retained point can need: records
// below the oldest remaining point's per-source cursors.
func (a *Archive) pruneLocked(ea *engineArchive) {
	if len(ea.points) == 0 {
		return
	}
	oldest := ea.points[0]
	for src, recs := range ea.inputs {
		floor, ok := oldest.cursors[src]
		if !ok || floor == 0 {
			continue
		}
		i := sort.Search(len(recs), func(i int) bool { return recs[i].Seq >= floor })
		if i > 0 {
			ea.inputs[src] = append([]wal.InputRecord(nil), recs[i:]...)
		}
	}
}

// Points lists the retained rewind points of one engine, oldest first.
func (a *Archive) Points(engineName string) []PointInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	ea, ok := a.engines[engineName]
	if !ok {
		return nil
	}
	out := make([]PointInfo, len(ea.points))
	for i, pt := range ea.points {
		out[i] = PointInfo{Seq: pt.seq, VT: pt.vtime, Bytes: len(pt.data)}
	}
	return out
}

// oldestSeq returns the sequence number of the oldest retained point.
func (a *Archive) oldestSeq(engineName string) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ea, ok := a.engines[engineName]
	if !ok || len(ea.points) == 0 {
		return 0, fmt.Errorf("%w: engine %q has no archived rewind points (take a checkpoint first)", ErrBeforeHistory, engineName)
	}
	return ea.points[0].seq, nil
}

// pointFor selects the rewind point a reconstruction at target starts
// from: the newest retained point at or before target, or — when fromSeq
// is non-zero — the retained point with exactly that checkpoint sequence
// (it must still be at or before target). Errors wrap ErrBeforeHistory
// when history no longer reaches the target.
func (a *Archive) pointFor(engineName string, target vt.Time, fromSeq uint64) (*point, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ea, ok := a.engines[engineName]
	if !ok || len(ea.points) == 0 {
		return nil, fmt.Errorf("%w: engine %q has no archived rewind points (take a checkpoint first)", ErrBeforeHistory, engineName)
	}
	if fromSeq != 0 {
		for _, pt := range ea.points {
			if pt.seq == fromSeq {
				if pt.vtime > target {
					return nil, fmt.Errorf("inspect: rewind point seq %d of %q is at VT %d, after target VT %d", fromSeq, engineName, pt.vtime, target)
				}
				return pt, nil
			}
		}
		return nil, fmt.Errorf("%w: engine %q retains no rewind point with seq %d", ErrBeforeHistory, engineName, fromSeq)
	}
	// Newest point with vtime <= target.
	best := -1
	for i, pt := range ea.points {
		if pt.vtime <= target {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("%w: engine %q oldest retained point is at VT %d (seq %d), target VT %d — raise TimeTravel.History or checkpoint more often",
			ErrBeforeHistory, engineName, ea.points[0].vtime, ea.points[0].seq, target)
	}
	return ea.points[best], nil
}

// sandboxLog builds the replay sandbox's stable log for one engine: every
// retained input with VT <= target (per-source VTs are strictly
// increasing, so this is a seq-contiguous prefix) plus the full fault
// history — replaying past a recalibration must switch coefficients at the
// same virtual time the live run did (§II.G.4).
func (a *Archive) sandboxLog(engineName string, target vt.Time) *wal.MemLog {
	log := wal.NewMemLog()
	a.mu.Lock()
	defer a.mu.Unlock()
	ea, ok := a.engines[engineName]
	if !ok {
		return log
	}
	sources := make([]string, 0, len(ea.inputs))
	for src := range ea.inputs {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	for _, src := range sources {
		for _, rec := range ea.inputs[src] {
			if rec.VT > target {
				break
			}
			_ = log.AppendInput(rec)
		}
	}
	for _, rec := range ea.faults {
		_ = log.AppendFault(rec)
	}
	return log
}
