package inspect

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vt"
)

// DefaultTimeout bounds a reconstruction's replay when neither the
// inspector config nor the per-call options set one. A drained replay
// finishes in milliseconds; the timeout exists so a sandbox that cannot
// drain (e.g. cross-engine rewind points too far apart to bridge) reports
// a clear error instead of hanging.
const DefaultTimeout = 30 * time.Second

// Predicate is a state watchpoint: it receives a component's (sandboxed)
// state object after each replayed delivery and reports whether the
// condition of interest holds. It must only read the state.
type Predicate func(state any) bool

// Config assembles an Inspector.
type Config struct {
	// Topo is the application topology (shared with the live cluster; the
	// inspector only reads it).
	Topo *topo.Topology
	// Specs are the live component specs, keyed by component name. The
	// inspector never runs these instances: pointer states are cloned via
	// reflection and calibrated estimators via Clone before any sandbox
	// touches them.
	Specs map[string]engine.ComponentSpec
	// Archive holds the rewind points and retained WAL records.
	Archive *Archive
	// Audits resolves an engine's live determinism audit log; nil or a nil
	// result disables Bisect (which needs the live chain record to compare
	// replays against).
	Audits func(engineName string) *trace.AuditLog
	// Timeout bounds each reconstruction's replay (DefaultTimeout if zero).
	Timeout time.Duration
}

// Inspector reconstructs component states at arbitrary virtual times by
// restoring archived rewind points into a sandboxed shadow cluster and
// deterministically replaying the retained inputs. The sandbox shares
// nothing observable with the live run: fresh in-process transport, a
// private metrics registry, no recorder, no audit log, no backup, no
// sinks (unregistered sink wires are dropped by the router), and
// calibration disabled so no new determinism faults are proposed.
type Inspector struct {
	cfg Config
}

// New builds an Inspector.
func New(cfg Config) (*Inspector, error) {
	if cfg.Topo == nil || cfg.Specs == nil || cfg.Archive == nil {
		return nil, errors.New("inspect: Topo, Specs, and Archive are required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	return &Inspector{cfg: cfg}, nil
}

// Options parameterizes one reconstruction run.
type Options struct {
	// Target is the virtual time to reconstruct: each component's state
	// after every delivery whose post-handler clock is <= Target. Use
	// vt.Max to replay everything retained.
	Target vt.Time
	// Components restricts which components get their state captured
	// (default: all).
	Components []string
	// FromSeq pins the rewind point per engine by checkpoint sequence
	// (default: the newest retained point at or before Target).
	FromSeq map[string]uint64
	// Watch holds state watchpoints, keyed by component name. Each is
	// evaluated after every replayed delivery of its component (up to
	// Target); the first delivery for which it returns true is reported.
	Watch map[string]Predicate
	// Tape lists components whose full replayed delivery sequence is
	// returned (bisection uses this).
	Tape []string
	// Timeout overrides the inspector's replay timeout.
	Timeout time.Duration
}

// State is a component's reconstructed state at a virtual time.
type State struct {
	Component string `json:"component"`
	// VT is the post-handler clock of the last delivery folded into this
	// state (the rewind point's clock when no delivery was <= target).
	VT         vt.Time `json:"vt"`
	AuditChain uint64  `json:"auditChain"`
	AuditCount uint64  `json:"auditCount"`
	// Deliveries counts deliveries replayed into this state after the
	// rewind point (0 when the state is the point itself).
	Deliveries int `json:"replayedDeliveries"`
	// Render is a human-readable rendering of the state (%+v, map keys
	// sorted).
	Render string `json:"state"`
	// Data is the captured state encoding. Note gob does not order map
	// entries deterministically: compare decoded states (Decode) or chains,
	// not raw bytes.
	Data         []byte          `json:"-"`
	LastDelivery *sched.Delivery `json:"lastDelivery,omitempty"`
}

// Decode reinstates the captured state into a fresh instance of the
// component's state type.
func (s *State) Decode(into any) error { return checkpoint.Reinstate(into, s.Data) }

// WatchHit reports the first replayed delivery at which a watchpoint
// predicate fired. The delivery's Origin names the external input causally
// responsible.
type WatchHit struct {
	Component string         `json:"component"`
	Delivery  sched.Delivery `json:"delivery"`
	Render    string         `json:"state"`
}

// Result is one reconstruction run's output.
type Result struct {
	Target vt.Time `json:"target"`
	// Points records the rewind point each engine was restored from.
	Points map[string]PointInfo `json:"points"`
	States map[string]*State    `json:"states"`
	Watch  map[string]*WatchHit `json:"watch,omitempty"`
	// Replayed counts every delivery the sandbox replayed across all
	// engines (the cost of this reconstruction).
	Replayed int                         `json:"replayedTotal"`
	Tapes    map[string][]sched.Delivery `json:"-"`
}

// Run reconstructs state at opts.Target. It restores every engine of the
// topology from an archived rewind point into a sandboxed shadow cluster
// (cross-engine wires replay through the ordinary peer recovery protocol),
// replays the retained inputs with virtual time <= Target, waits for the
// end-of-input silence cascade to drain every scheduler to vt.Max, and
// captures each requested component's state as of the last delivery at or
// before Target.
func (i *Inspector) Run(opts Options) (*Result, error) {
	target := opts.Target
	if target < vt.Zero {
		return nil, fmt.Errorf("inspect: invalid target VT %d", target)
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = i.cfg.Timeout
	}
	for _, name := range opts.Components {
		if _, ok := i.cfg.Specs[name]; !ok {
			return nil, fmt.Errorf("inspect: unknown component %q", name)
		}
	}
	for name := range opts.Watch {
		if _, ok := i.cfg.Specs[name]; !ok {
			return nil, fmt.Errorf("inspect: watch on unknown component %q", name)
		}
	}
	for _, name := range opts.Tape {
		if _, ok := i.cfg.Specs[name]; !ok {
			return nil, fmt.Errorf("inspect: tape for unknown component %q", name)
		}
	}
	want := make(map[string]bool)
	if len(opts.Components) == 0 {
		for name := range i.cfg.Specs {
			want[name] = true
		}
	} else {
		for _, name := range opts.Components {
			want[name] = true
		}
	}

	run := &sandboxRun{
		target: target,
		track:  make(map[string]*trackState),
		tapes:  make(map[string][]sched.Delivery),
		watch:  opts.Watch,
		hits:   make(map[string]*WatchHit),
	}
	for _, name := range opts.Tape {
		run.tapes[name] = []sched.Delivery{}
	}

	res := &Result{Target: target, Points: make(map[string]PointInfo), States: make(map[string]*State)}
	engines := i.cfg.Topo.Engines()
	tr := transport.NewInproc()
	addrs := make(map[string]string, len(engines))
	for _, en := range engines {
		addrs[en] = "rewind:" + en
	}
	var sand []*engine.Engine
	stopAll := func() {
		for _, se := range sand {
			se.Stop()
		}
	}
	for _, en := range engines {
		pt, err := i.cfg.Archive.pointFor(en, target, opts.FromSeq[en])
		if err != nil {
			stopAll()
			return nil, err
		}
		res.Points[en] = PointInfo{Seq: pt.seq, VT: pt.vtime, Bytes: len(pt.data)}
		se, err := i.buildSandbox(en, pt, target, tr, addrs, run, want)
		if err != nil {
			stopAll()
			return nil, err
		}
		sand = append(sand, se)
	}
	for _, se := range sand {
		if err := se.Start(); err != nil {
			stopAll()
			return nil, fmt.Errorf("inspect: starting sandbox engine %q: %w", se.Name(), err)
		}
	}
	// Terminate every source: the vt.Max quiesce cascades silence through
	// the topology, so the replay runs exactly the retained inputs and then
	// every scheduler's clock reaches vt.Max.
	for _, se := range sand {
		for _, src := range i.cfg.Topo.Sources() {
			if s, err := se.Source(src.Name); err == nil {
				s.End()
			}
		}
	}
	deadline := time.Now().Add(timeout)
	for !i.drained(sand) {
		if time.Now().After(deadline) {
			stopAll()
			return nil, fmt.Errorf("inspect: replay did not drain within %v (replayed %d deliveries so far) — cross-engine rewind points may be too far apart to bridge; align checkpoint cadences (e.g. a VT-cadence checkpoint option) or raise the timeout",
				timeout, run.count())
		}
		time.Sleep(200 * time.Microsecond)
	}
	stopAll()

	run.mu.Lock()
	defer run.mu.Unlock()
	res.Replayed = run.replayed
	for name, ts := range run.track {
		if ts.err != nil {
			return nil, fmt.Errorf("inspect: capturing %q during replay: %w", name, ts.err)
		}
		if !ts.wantState {
			continue
		}
		st := ts.cur
		if st == nil {
			st = ts.baseline
		}
		if st != nil {
			res.States[name] = st
		}
	}
	if len(run.hits) > 0 {
		res.Watch = run.hits
	}
	if len(run.tapes) > 0 {
		res.Tapes = run.tapes
	}
	return res, nil
}

// StateAt reconstructs one component's state at the target virtual time.
func (i *Inspector) StateAt(component string, target vt.Time) (*State, error) {
	res, err := i.Run(Options{Target: target, Components: []string{component}})
	if err != nil {
		return nil, err
	}
	st, ok := res.States[component]
	if !ok {
		return nil, fmt.Errorf("inspect: no state reconstructed for %q at VT %d", component, target)
	}
	return st, nil
}

// Diff reconstructs one component's state at two virtual times. The states
// are identical iff their audit chains and counts agree: the chain is a
// running hash over the full delivered prefix, so equal chains at equal
// counts mean the same deliveries produced the same state.
type Diff struct {
	Component string  `json:"component"`
	A         *State  `json:"a"`
	B         *State  `json:"b"`
	Identical bool    `json:"identical"`
	AVT       vt.Time `json:"aVT"`
	BVT       vt.Time `json:"bVT"`
}

// Diff reconstructs component at VTs a and b and compares.
func (i *Inspector) Diff(component string, a, b vt.Time) (*Diff, error) {
	sa, err := i.StateAt(component, a)
	if err != nil {
		return nil, err
	}
	sb, err := i.StateAt(component, b)
	if err != nil {
		return nil, err
	}
	return &Diff{
		Component: component,
		A:         sa,
		B:         sb,
		AVT:       a,
		BVT:       b,
		Identical: sa.AuditChain == sb.AuditChain && sa.AuditCount == sb.AuditCount,
	}, nil
}

// BisectReport localizes the first delivery at which a component's
// replayed history diverges from the live run's audit record.
type BisectReport struct {
	Component string `json:"component"`
	Engine    string `json:"engine"`
	// Divergence reports whether any replayed delivery's chain differs
	// from the live record.
	Divergence bool `json:"divergence"`
	// The first divergent delivery (valid when Divergence).
	Index       uint64       `json:"auditIndex"`
	Wire        msg.WireID   `json:"wire"`
	Seq         uint64       `json:"seq"`
	VT          vt.Time      `json:"vt"`
	Origin      msg.OriginID `json:"origin"`
	LiveChain   uint64       `json:"liveChain"`
	ReplayChain uint64       `json:"replayChain"`
	// Compared is the replayed tape length, Probes the number of chain
	// comparisons the bisection performed (O(log Compared)), Replayed the
	// sandbox's total delivery count, FromPoint the rewind point the
	// component's engine restored from.
	Compared  int       `json:"compared"`
	Probes    int       `json:"probes"`
	Replayed  int       `json:"replayedTotal"`
	FromPoint PointInfo `json:"fromPoint"`
}

// Bisect replays the component's engine from its oldest retained rewind
// point and binary-searches the replayed delivery tape for the first entry
// whose audit chain differs from the live run's record at the same index.
// The chain is a prefix hash — once a replay diverges it stays diverged —
// so the "still matches the live chain" predicate is monotone over the
// tape and sort.Search pins the exact first divergent (wire, seq, VT) in
// O(log n) comparisons.
func (i *Inspector) Bisect(component string) (*BisectReport, error) {
	comp, ok := i.cfg.Topo.ComponentByName(component)
	if !ok {
		return nil, fmt.Errorf("inspect: unknown component %q", component)
	}
	if i.cfg.Audits == nil {
		return nil, errors.New("inspect: bisect requires the live determinism audit record (enable the flight recorder)")
	}
	audit := i.cfg.Audits(comp.Engine)
	if audit == nil {
		return nil, errors.New("inspect: bisect requires the live determinism audit record (enable the flight recorder)")
	}
	// Restore every engine from its oldest retained point: the widest
	// replay window, and mutually consistent restore points for
	// cross-engine replay.
	fromSeq := make(map[string]uint64)
	for _, en := range i.cfg.Topo.Engines() {
		seq, err := i.cfg.Archive.oldestSeq(en)
		if err != nil {
			return nil, err
		}
		fromSeq[en] = seq
	}
	res, err := i.Run(Options{
		Target:     vt.Max,
		Components: []string{component},
		FromSeq:    fromSeq,
		Tape:       []string{component},
	})
	if err != nil {
		return nil, err
	}
	tape := res.Tapes[component]
	rep := &BisectReport{
		Component: component,
		Engine:    comp.Engine,
		Compared:  len(tape),
		Replayed:  res.Replayed,
		FromPoint: res.Points[comp.Engine],
	}
	if len(tape) == 0 {
		return rep, nil
	}
	matches := func(k int) bool {
		rep.Probes++
		entry, ok := audit.At(component, tape[k].Index)
		if !ok {
			// Outside the live audit window — unverifiable, treat as intact.
			return true
		}
		return entry.Chain == tape[k].Chain
	}
	first := sort.Search(len(tape), func(k int) bool { return !matches(k) })
	if first == len(tape) {
		return rep, nil
	}
	d := tape[first]
	rep.Divergence = true
	rep.Index = d.Index
	rep.Wire = d.Wire
	rep.Seq = d.Seq
	rep.VT = d.VT
	rep.Origin = d.Origin
	rep.ReplayChain = d.Chain
	if entry, ok := audit.At(component, d.Index); ok {
		rep.LiveChain = entry.Chain
	}
	return rep, nil
}

// Points lists every engine's retained rewind points.
func (i *Inspector) Points() map[string][]PointInfo {
	out := make(map[string][]PointInfo)
	for _, en := range i.cfg.Topo.Engines() {
		out[en] = i.cfg.Archive.Points(en)
	}
	return out
}

// sandboxRun is the shared observation state of one reconstruction.
type sandboxRun struct {
	target vt.Time

	mu       sync.Mutex
	replayed int
	track    map[string]*trackState
	tapes    map[string][]sched.Delivery
	watch    map[string]Predicate
	hits     map[string]*WatchHit
}

type trackState struct {
	state      any // the sandbox's state object for this component
	wantState  bool
	baseline   *State // the rewind point itself, pre-replay
	cur        *State // newest capture with ClockAfter <= target
	deliveries int
	err        error
}

func (r *sandboxRun) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replayed
}

// hook observes every sandbox delivery. The scheduler invokes it on the
// one-delivery-per-step path with the component's worker parked, so the
// state object is stable while we capture it; the mutex serializes
// bookkeeping across components.
func (r *sandboxRun) hook(d sched.Delivery) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replayed++
	ts := r.track[d.Component]
	if ts == nil {
		return
	}
	ts.deliveries++
	if tape, ok := r.tapes[d.Component]; ok {
		r.tapes[d.Component] = append(tape, d)
	}
	if d.ClockAfter > r.target {
		return
	}
	if ts.wantState && ts.err == nil {
		data, err := checkpoint.Capture(ts.state)
		if err != nil {
			ts.err = err
			return
		}
		dd := d
		ts.cur = &State{
			Component:    d.Component,
			VT:           d.ClockAfter,
			AuditChain:   d.Chain,
			AuditCount:   d.Index + 1,
			Deliveries:   ts.deliveries,
			Render:       renderState(ts.state),
			Data:         data,
			LastDelivery: &dd,
		}
	}
	if pred, ok := r.watch[d.Component]; ok && r.hits[d.Component] == nil && pred(ts.state) {
		dd := d
		r.hits[d.Component] = &WatchHit{Component: d.Component, Delivery: dd, Render: renderState(ts.state)}
	}
}

// buildSandbox restores one engine from a rewind point into an isolated
// sandbox engine (not yet started).
func (i *Inspector) buildSandbox(en string, pt *point, target vt.Time, tr transport.Transport, addrs map[string]string, run *sandboxRun, want map[string]bool) (*engine.Engine, error) {
	chain, err := pt.chain()
	if err != nil {
		return nil, fmt.Errorf("inspect: rewind point seq %d of %q: %w", pt.seq, en, err)
	}
	store := checkpoint.NewReplicaStore()
	for _, ck := range chain {
		if err := store.Apply(ck); err != nil {
			return nil, fmt.Errorf("inspect: staging rewind point seq %d of %q: %w", pt.seq, en, err)
		}
	}
	ck := chain[len(chain)-1]
	specs := make(map[string]engine.ComponentSpec)
	clones := make(map[string]any)
	for _, id := range i.cfg.Topo.ComponentsOn(en) {
		name := i.cfg.Topo.Component(id).Name
		spec, ok := i.cfg.Specs[name]
		if !ok {
			return nil, fmt.Errorf("inspect: no spec for component %q", name)
		}
		out, clone, err := cloneSpec(name, spec)
		if err != nil {
			return nil, err
		}
		specs[name] = out
		clones[name] = clone
	}
	cfg := engine.Config{
		Name:       en,
		Topo:       i.cfg.Topo,
		Components: specs,
		Transport:  tr,
		Addrs:      addrs,
		Log:        i.cfg.Archive.sandboxLog(en, target),
		// Isolation: private metrics registry, no recorder/audit/spans, no
		// backup (the sandbox never checkpoints), no debug listener, no
		// sinks (unregistered sink wires are dropped), calibration off.
		Metrics:            &trace.Metrics{},
		Clock:              func() vt.Time { return vt.Zero },
		DisableCalibration: true,
		OnDelivered:        run.hook,
	}
	se, err := engine.NewFromBackup(cfg, store)
	if err != nil {
		return nil, fmt.Errorf("inspect: restoring sandbox %q from seq %d: %w", en, pt.seq, err)
	}
	// NewFromBackup has loaded the point's state into the clones; record
	// them as the pre-replay baselines.
	baselines := make(map[string]*State)
	for name, clone := range clones {
		cs, ok := ck.Components[name]
		if !ok {
			continue
		}
		b := &State{
			Component:  name,
			VT:         cs.Sched.Clock,
			AuditChain: cs.Sched.AuditChain,
			AuditCount: cs.Sched.AuditCount,
			Render:     renderState(clone),
		}
		if want[name] {
			data, err := checkpoint.Capture(clone)
			if err != nil {
				return nil, fmt.Errorf("inspect: capturing restored state of %q: %w", name, err)
			}
			b.Data = data
		}
		baselines[name] = b
	}
	run.mu.Lock()
	for name, clone := range clones {
		run.track[name] = &trackState{state: clone, wantState: want[name], baseline: baselines[name]}
	}
	run.mu.Unlock()
	return se, nil
}

// drained reports whether every sandbox scheduler has run to vt.Max (the
// end-of-input silence cascade has fully propagated).
func (i *Inspector) drained(sand []*engine.Engine) bool {
	for _, se := range sand {
		for _, id := range i.cfg.Topo.ComponentsOn(se.Name()) {
			name := i.cfg.Topo.Component(id).Name
			sch, ok := se.Scheduler(name)
			if !ok || sch.Clock() != vt.Max {
				return false
			}
		}
	}
	return true
}

// cloneSpec builds the sandbox's copy of a component spec. Pointer states
// are replaced with fresh instances (the restore then fills them from the
// rewind point); calibrated estimators are deep-copied. A pointer state
// whose handler is a *different* object cannot be isolated safely —
// the handler may alias the live state — and is rejected.
func cloneSpec(name string, spec engine.ComponentSpec) (engine.ComponentSpec, any, error) {
	out := spec
	if cal, ok := spec.Est.(*estimator.Calibrated); ok {
		out.Est = cal.Clone()
	}
	st := spec.State
	sv := reflect.ValueOf(st)
	if st == nil || sv.Kind() != reflect.Pointer {
		// Value state: the scheduler works on its own copy; sharing the
		// spec value is safe.
		return out, out.State, nil
	}
	clone := reflect.New(sv.Type().Elem()).Interface()
	out.State = clone
	hv := reflect.ValueOf(spec.Handler)
	if hv.Kind() == reflect.Pointer && hv.Pointer() == sv.Pointer() {
		// The common case: the handler IS the state (app.Register default).
		h, ok := clone.(sched.Handler)
		if !ok {
			return out, nil, fmt.Errorf("inspect: component %q: cloned state %T does not implement sched.Handler", name, clone)
		}
		out.Handler = h
		return out, clone, nil
	}
	return out, nil, fmt.Errorf("inspect: component %q: handler is distinct from its pointer state; a sandboxed replay cannot isolate it from the live instance", name)
}

// renderState renders a state object human-readably. %+v prints map keys
// sorted, so the rendering is deterministic.
func renderState(state any) string {
	v := reflect.ValueOf(state)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		return fmt.Sprintf("%+v", v.Elem().Interface())
	}
	return fmt.Sprintf("%+v", state)
}
