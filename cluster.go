package tart

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/inspect"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/silence"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/transport"
	"repro/internal/vt"
	"repro/internal/wal"
)

// ClusterOption configures Launch.
type ClusterOption interface {
	apply(*clusterConfig)
}

type clusterOptionFunc func(*clusterConfig)

func (f clusterOptionFunc) apply(c *clusterConfig) { f(c) }

type clusterConfig struct {
	transport          transport.Transport
	addrs              map[string]string
	checkpointEvery    time.Duration
	sourceSilenceEvery time.Duration
	manualClock        func() VirtualTime
	debugAddrs         map[string]string
	flightOn           bool
	flightDir          string
	spansOn            bool
	spanSample         int
	netem              *transport.Netem
	walInject          *wal.Injector
	supervisor         *SupervisorConfig
	timetravel         *TimeTravel
	durableDir         string
	hostSet            map[string]bool
	shedLimit          int
}

// WithTCP runs inter-engine wires over TCP; addrs maps engine names to
// host:port listen addresses. Without this option multi-engine apps use an
// in-process transport.
func WithTCP(addrs map[string]string) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		c.transport = transport.TCP{}
		c.addrs = addrs
	})
}

// WithDurableStore roots each engine's recovery state in dir: the stable
// input log moves to <dir>/<engine>/wal.log and every soft checkpoint is
// additionally persisted — as shipped, a full capture or the delta since
// the last one, fsync-disciplined and atomically manifested — under
// <dir>/<engine>/checkpoints. The directory then survives OS-process
// death: a new process pointed at the same dir with Reopen restores the
// newest durable chain (a full capture plus at most nine deltas), replays
// the WAL suffix, and rejoins its peers under a freshly bumped (and durably
// recorded) generation. Launch treats the directory as a fresh deployment's state
// root; use Reopen to restart over an existing one.
func WithDurableStore(dir string) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.durableDir = dir })
}

// WithEngines restricts this process to hosting only the named engines of
// the topology; the rest are expected to run in other processes reachable
// through the configured transport (normally WithTCP). Sources and sinks
// attached to unhosted engines are rejected with an error naming the
// engine. Without this option the process hosts every engine.
func WithEngines(names ...string) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		c.hostSet = make(map[string]bool, len(names))
		for _, n := range names {
			c.hostSet[n] = true
		}
	})
}

// WithShedLimit bounds every engine's total buffered replay envelopes.
// While a peer is down its unacked envelopes cannot be trimmed; past the
// limit, sources refuse new external inputs with ErrSourceShed instead of
// growing the buffers without bound. The refused input never entered the
// system, so the producer can retry the same virtual time later. Zero
// (the default) keeps the buffers unbounded.
func WithShedLimit(n int) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.shedLimit = n })
}

// WithCheckpointEvery sets the soft-checkpoint cadence (the paper's
// checkpoint-frequency tuning knob: more frequent checkpoints shorten
// recovery but cost more). Zero leaves checkpointing manual
// (Cluster.Checkpoint).
func WithCheckpointEvery(d time.Duration) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.checkpointEvery = d })
}

// WithSourceSilenceEvery sets how often real-time sources push silence
// watermarks (default 1ms). Use 0 with WithManualClock for fully
// deterministic tests driving EmitAt/Quiesce explicitly.
func WithSourceSilenceEvery(d time.Duration) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.sourceSilenceEvery = d })
}

// WithManualClock replaces the real-time source clock — test and
// experiment harnesses drive virtual time explicitly via EmitAt/Quiesce.
// Implies no automatic source silence.
func WithManualClock(clock func() VirtualTime) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		c.manualClock = clock
		c.sourceSilenceEvery = -1
	})
}

// WithDebugHTTP has the cluster bind a debug HTTP listener per engine
// incarnation serving /metrics (Prometheus text), /healthz, /trace?last=N,
// /spans, /topology, /supervisor and /rewind; addrs maps
// engine names to listen addresses ("127.0.0.1:0" binds an ephemeral port,
// discover it with Cluster.DebugAddr). Engines absent from the map get no
// listener. Off by default.
func WithDebugHTTP(addrs map[string]string) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.debugAddrs = addrs })
}

// WithFlightRecorder turns each engine's flight recorder on: a fixed-size
// ring of structured VT-stamped events (deliveries, sends, silence, probes,
// pessimism episodes, checkpoints, replay, failover) queryable via
// Cluster.TraceEvents and /trace. The recorder survives Fail/Recover, so a
// post-failover dump contains the pre-crash story. When dir is non-empty
// the cluster also dumps the ring to <dir>/<engine>-flight.jsonl after a
// restored engine's replay and whenever an engine stops or is killed.
//
// The option also enables the determinism audit: each component's delivered
// (wire, seq, VT, payload-digest) sequence is folded into a rolling hash
// chain that survives Fail/Recover alongside the recorder, so a divergent
// replay is detected as a VT-stamped determinism-fault event instead of
// surfacing later as corrupted outputs.
func WithFlightRecorder(dir string) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		c.flightOn = true
		c.flightDir = dir
	})
}

// WithSpanTracing turns the span layer on: deliveries, pessimism waits
// and handler runs of head-sampled origins are recorded as wall-clock+VT spans, queryable via Cluster.Spans, the /spans
// debug endpoint, and `tartctl timeline`. sampleN selects one traced
// origin in N by deterministic OriginID hash (<=0 uses the default 1/64;
// 1 traces everything) — every engine, replica, and replay picks the same
// origins with no coordination. Collectors survive Fail/Recover like the
// flight recorder, and replayed re-deliveries re-emit spans tagged
// replayed=true, so a recovery's latency cost lands in the same timeline.
func WithSpanTracing(sampleN int) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) {
		c.spansOn = true
		c.spanSample = sampleN
	})
}

func init() {
	faults.WithFaults = func(nc *transport.Netem, inj *wal.Injector) any { return withFaults(nc, inj) }
}

// withFaults threads a link-fault emulator into every inter-engine
// connection and a disk-fault injector in front of every engine's stable
// log; either may be nil. Control-plane hellos (handshakes, heartbeats) are
// exempt from probabilistic link faults: a partition cuts the link, which
// severs them too. An armed disk fault fails an append with wal.ErrInjected
// before anything is written, and a source surfaces it without advancing
// its sequence, so a retry after the fault clears is exactly-once. Only the
// chaos oracle and tests reach it, through faults.WithFaults.
func withFaults(nc *transport.Netem, inj *wal.Injector) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.netem, c.walInject = nc, inj })
}

// WithSupervisor runs an automatic failover supervisor alongside the
// cluster: a failure detector polls every engine's peers for heartbeat
// silence (PeerHealth.LastHeard staleness), and once every live peer has
// been silent past the suspicion window — or, for engines with no peers,
// once local liveness is lost — the supervisor drives Fail→Recover
// itself. Each recovery increments the engine's generation; handshakes
// fence stale generations so a zombie of the old incarnation cannot
// re-join. A false suspicion is safe: recovery is deterministic, so a
// needless failover costs latency, never correctness (paper §II.A).
//
// Enabling the supervisor also takes an initial checkpoint of every
// engine at launch, so a crash before the first periodic checkpoint is
// still recoverable without operator help.
func WithSupervisor(cfg SupervisorConfig) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.supervisor = &cfg })
}

// Cluster is a running deployment: one engine per placement name, each
// paired with a passive replica (a checkpoint store) and a stable input
// log. Cluster survives engine failures: Fail simulates a crash and
// Recover rebuilds the engine from its replica; user-held Source handles
// and Sink registrations transparently re-attach to the replacement.
type Cluster struct {
	mu      sync.Mutex
	tp      *topo.Topology
	specs   map[string]engine.ComponentSpec
	cfg     clusterConfig
	engines map[string]*engineSlot
	sources map[string]*Source
	peers   map[string][]string // engine -> engines it shares remote wires with
	sup     *supervisor
	closed  bool

	// The control plane (see control.go): the supervisor loop's stop signal
	// and wait group, and the registry of its metric families.
	ctl    *controlMetrics
	bg     sync.WaitGroup
	bgStop chan struct{}

	// Time travel (see timetravel.go): the rewind-point archive and the
	// sandboxed replay inspector built over it.
	arch *inspect.Archive
	insp *inspect.Inspector
}

type engineSlot struct {
	*incarnation // the current one; Recover swaps it under the cluster lock
	// live publishes the current incarnation's engine while the slot is up
	// (set at launch and by Recover, cleared by Fail), so a Source emits
	// without the cluster lock.
	live atomic.Pointer[engine.Engine]

	name      string
	store     *checkpoint.ReplicaStore
	fstore    *checkpoint.FileStore // durable checkpoint store (WithDurableStore)
	log       wal.Log
	flog      *wal.FileLog            // the file log under log's wrappers, if any
	sinks     map[string]func(Output) // sink name -> user callback
	rec       *trace.Recorder         // shared across engine generations
	audit     *sched.AuditLog         // shared across engine generations
	spans     *span.Collector         // shared across engine generations
	gen       uint64                  // incarnation fencing token, bumped on Recover
	startedAt time.Time               // when the current incarnation started
	failed    bool
	inRecover bool    // a Recover call owns the slot
	reached   vt.Time // VT frontier earlier incarnations reached (set by Recover)
}

// incarnation is one engine incarnation, its own metric registry and its
// listener.
type incarnation struct {
	eng      *engine.Engine
	reg      *trace.Registry
	debug    *debugServer // nil without a WithDebugHTTP address
	restored bool         // built from a checkpoint: Start replays
	halted   sync.Once
}

// Launch builds and starts a cluster from the application.
func Launch(app *App, opts ...ClusterOption) (*Cluster, error) {
	return launch(app, false, opts)
}

// Reopen cold-restarts a cluster over an existing durable state directory
// (requires WithDurableStore): each hosted engine restores the newest
// durable checkpoint, replays its WAL suffix past the checkpoint's
// cursors, bumps and durably persists its generation *before* rejoining
// peers (so a zombie of the pre-crash process is fenced), and resumes.
// Engines whose store holds no checkpoint start fresh from their WAL.
// Output stutter from the replayed suffix is suppressed by DedupOutputs
// as usual.
func Reopen(app *App, opts ...ClusterOption) (*Cluster, error) {
	return launch(app, true, opts)
}

func launch(app *App, reopen bool, opts []ClusterOption) (*Cluster, error) {
	tp, specs, err := app.build()
	if err != nil {
		return nil, err
	}
	var cfg clusterConfig
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.sourceSilenceEvery == 0 {
		cfg.sourceSilenceEvery = time.Millisecond
	}
	if reopen && cfg.durableDir == "" {
		return nil, errors.New("tart: Reopen requires WithDurableStore")
	}
	if cfg.flightDir != "" {
		// Every dump is written where an error is ignored (a shutdown, a
		// recovery), so a directory that cannot be made fails the launch.
		if err := os.MkdirAll(cfg.flightDir, 0o755); err != nil {
			return nil, fmt.Errorf("tart: flight recorder dir: %w", err)
		}
	}
	if cfg.hostSet != nil {
		known := make(map[string]bool)
		for _, e := range tp.Engines() {
			known[e] = true
		}
		for name := range cfg.hostSet {
			if !known[name] {
				return nil, fmt.Errorf("tart: WithEngines names unknown engine %q", name)
			}
		}
	}
	if cfg.transport == nil && len(tp.Engines()) > 1 {
		cfg.transport = transport.NewInproc()
		cfg.addrs = make(map[string]string, len(tp.Engines()))
		for _, e := range tp.Engines() {
			cfg.addrs[e] = "inproc:" + e
		}
	}
	if cfg.netem != nil {
		// The emulator resolves transport addresses back to engine names so
		// fault plans and cuts are expressed on engine pairs, not addresses.
		cfg.netem.SetAddrs(cfg.addrs)
	}

	c := &Cluster{
		tp:      tp,
		specs:   specs,
		cfg:     cfg,
		engines: make(map[string]*engineSlot),
		sources: make(map[string]*Source),
		peers:   peersOf(tp),
		bgStop:  make(chan struct{}),
	}
	c.ctl = &controlMetrics{reg: trace.NewRegistry()}
	if cfg.supervisor != nil {
		// Created before the engines so their debug surfaces (/supervisor,
		// appended /metrics families) can reference it; started after.
		c.sup = &supervisor{c: c, cfg: cfg.supervisor.withDefaults(), lastAction: make(map[string]time.Time)}
	}
	if cfg.timetravel != nil {
		// Created before the engines: the archive wraps their logs and tees
		// their backups, and the debug surface (/rewind) queries the
		// inspector. Audit logs resolve lazily — slots exist by first use.
		c.arch = inspect.NewArchive(tp, cfg.timetravel.History)
		c.insp, err = inspect.New(inspect.Config{
			Topo:    tp,
			Specs:   specs,
			Archive: c.arch,
			Audits: func(engineName string) *sched.AuditLog {
				if slot, ok := c.engines[engineName]; ok {
					return slot.audit
				}
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
	}
	for _, name := range tp.Engines() {
		if !c.hosts(name) {
			continue
		}
		slot, err := c.openSlot(name, reopen)
		if err != nil {
			// Nothing has started yet: closing what the earlier slots opened
			// (their file logs) is the whole cleanup.
			for _, s := range c.engines {
				s.release()
			}
			return nil, err
		}
		c.engines[name] = slot
	}
	for _, slot := range c.engines {
		if err := c.start(slot, slot.incarnation); err != nil {
			c.Stop()
			return nil, err
		}
	}
	if c.sup != nil || c.arch != nil || cfg.durableDir != "" {
		// An engine that crashes before its first periodic checkpoint would
		// otherwise be unrecoverable; with a supervisor in charge nobody is
		// around to notice, so launch itself establishes the baseline. Time
		// travel wants the same baseline: the launch checkpoint is the
		// archive's first rewind point, making VT 0 onward reconstructible.
		// Durable stores want it most of all: the launch checkpoint is what
		// guarantees every completed Launch leaves a restorable state dir,
		// so a kill -9 at any later instant cold-restarts via Reopen.
		for _, slot := range c.engines {
			if _, err := slot.eng.Checkpoint(); err != nil {
				c.Stop()
				return nil, fmt.Errorf("tart: initial checkpoint of %q: %w", slot.name, err)
			}
		}
	}
	c.startControlPlane()
	return c, nil
}

// openSlot opens one hosted engine's slot: its durable store and bumped
// generation, its recorders, its stable log and its first incarnation,
// restored from the durable chain on a cold restart. On error it closes
// what it opened.
func (c *Cluster) openSlot(name string, reopen bool) (_ *engineSlot, err error) {
	cfg := c.cfg
	slot := &engineSlot{
		name:      name,
		store:     checkpoint.NewReplicaStore(),
		sinks:     make(map[string]func(Output)),
		gen:       1,
		startedAt: time.Now(),
	}
	defer func() {
		if err != nil {
			slot.release()
		}
	}()
	if cfg.durableDir != "" {
		// Generations must be durable before they are visible: the bumped
		// token is persisted in the manifest before the engine dials a
		// single peer, so even a crash mid-rejoin leaves the fencing
		// ratchet intact for the next restart.
		slot.fstore, err = checkpoint.OpenFileStore(
			filepath.Join(cfg.durableDir, name, "checkpoints"))
		if err != nil {
			return nil, err
		}
		slot.gen = slot.fstore.Generation() + 1
		if err := slot.fstore.SetGeneration(slot.gen); err != nil {
			return nil, err
		}
	}
	if cfg.flightOn {
		// The flight recorder and the determinism audit log share a
		// lifecycle: both outlive engine generations so a recovered
		// engine's replay is checked against the pre-crash record, and
		// both stay off (nil — zero hot-path cost) without
		// WithFlightRecorder.
		slot.rec = trace.NewRecorder(0)
		slot.audit = sched.NewAuditLog()
	}
	if cfg.spansOn {
		slot.spans = span.NewCollector(name, 0, cfg.spanSample)
	}
	log, err := c.newLog(name)
	if err != nil {
		return nil, err
	}
	slot.log = log
	slot.flog, _ = log.(*wal.FileLog)
	if c.arch != nil {
		// Inside the fault injector: what the injector admits (or
		// corrupts) is what both the base log and the archive persist,
		// so replays read exactly what a recovery would.
		slot.log = c.arch.WrapLog(name, slot.log)
	}
	if cfg.walInject != nil {
		slot.log = cfg.walInject.Wrap(name, slot.log)
	}
	// Without a durable checkpoint this is the first launch of the state
	// dir (or a reopen that beat the very first checkpoint — the durable
	// launch checkpoint below closes that window for every completed
	// Launch).
	cold := reopen && slot.fstore != nil && slot.fstore.Seq() > 0
	if cold {
		// Cold restart: seed the in-process replica from the newest
		// durable chain (a full capture and the deltas since), then build
		// the replacement engine from it exactly as a warm failover would —
		// Start replays the WAL suffix past the newest entry's cursors and
		// re-drives remote replay.
		chain, err := slot.fstore.Chain()
		if err != nil {
			return nil, fmt.Errorf("tart: reopen %q: %w", name, err)
		}
		for _, ck := range chain {
			if err := slot.store.Apply(ck); err != nil {
				return nil, fmt.Errorf("tart: reopen %q: %w", name, err)
			}
		}
	}
	if slot.incarnation, err = c.incarnate(slot, cold, cold); err != nil {
		if cold {
			err = fmt.Errorf("tart: reopen %q: %w", name, err)
		}
		return nil, err
	}
	slot.live.Store(slot.eng)
	return slot, nil
}

// release closes the slot's stable log and durable store: Stop does it
// once the engine has halted, and a launch that fails before any engine
// starts does it in Stop's place.
func (s *engineSlot) release() {
	if s.log != nil {
		_ = s.log.Close()
	}
	if s.fstore != nil {
		_ = s.fstore.Close()
	}
}

// peersOf maps each engine to the engines it shares at least one remote
// wire with — the voter set the failover supervisor polls when judging
// heartbeat silence.
func peersOf(tp *topo.Topology) map[string][]string {
	set := make(map[string]map[string]bool)
	for _, w := range tp.Wires() {
		a, b := tp.EngineOf(w.From), tp.EngineOf(w.To)
		if a == "" || b == "" || a == b {
			continue
		}
		for _, pair := range [2][2]string{{a, b}, {b, a}} {
			if set[pair[0]] == nil {
				set[pair[0]] = make(map[string]bool)
			}
			set[pair[0]][pair[1]] = true
		}
	}
	peers := make(map[string][]string, len(set))
	for eng, ps := range set {
		for p := range ps {
			peers[eng] = append(peers[eng], p)
		}
		sort.Strings(peers[eng])
	}
	return peers
}

// newLog opens an engine's stable log: the file WAL under its durable
// state directory with WithDurableStore, an in-memory log otherwise.
func (c *Cluster) newLog(engineName string) (wal.Log, error) {
	if c.cfg.durableDir == "" {
		return wal.NewMemLog(), nil
	}
	dir := filepath.Join(c.cfg.durableDir, engineName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tart: durable state dir for %q: %w", engineName, err)
	}
	return wal.OpenFileLog(filepath.Join(dir, "wal.log"))
}

// hosts reports whether this process hosts the named engine (WithEngines
// restricts the set; the default is all of them).
func (c *Cluster) hosts(engineName string) bool {
	return c.cfg.hostSet == nil || c.cfg.hostSet[engineName]
}

// engineConfig assembles an incarnation's engine configuration; obs is its
// push observer, nil without a push consumer.
func (c *Cluster) engineConfig(slot *engineSlot, obs *trace.Metrics) engine.Config {
	comps := make(map[string]engine.ComponentSpec)
	for _, id := range c.tp.ComponentsOn(slot.name) {
		name := c.tp.Component(id).Name
		comps[name] = c.specs[name]
	}
	silenceEvery := c.cfg.sourceSilenceEvery
	if silenceEvery < 0 {
		silenceEvery = 0
	}
	tr := c.cfg.transport
	if t, ok := tr.(transport.TCP); ok && obs != nil {
		// Per-engine transport copy so connections report their wire-level
		// families into this incarnation's registry, where SetRegistry
		// seeded them beside the engine's own series.
		t.Meter = obs
		tr = t
	}
	if c.cfg.netem != nil {
		// Wrap after any TCP copy so fault decisions see finished frames.
		tr = c.cfg.netem.For(slot.name, tr)
	}
	if slot.flog != nil && obs != nil {
		// Like the checkpoint store's, the log's commit accounting lands in
		// this incarnation's registry.
		m := obs.Registry().WAL()
		slot.flog.SetObserver(func(st wal.BatchStats) {
			m.Inputs.Add(int64(st.Inputs))
			m.Faults.Add(int64(st.Faults))
			m.Trims.Add(int64(st.Trims))
			m.Fsyncs.Inc()
			m.FsyncSeconds.Observe(st.Sync.Seconds())
			m.BatchRecords.Observe(float64(st.Inputs + st.Faults + st.Trims))
		})
	}
	cfg := engine.Config{
		Name:               slot.name,
		Topo:               c.tp,
		Components:         comps,
		Transport:          tr,
		Addrs:              c.cfg.addrs,
		Log:                slot.log,
		Backup:             c.backupFor(slot, obs),
		CheckpointEvery:    c.cfg.checkpointEvery,
		ShedBufferedLimit:  c.cfg.shedLimit,
		SourceSilenceEvery: silenceEvery,
		Clock:              c.cfg.manualClock,
		Audit:              slot.audit,
		Generation:         slot.gen,
		PeerGens:           c.peerGens(slot.name),
		ReplayHorizon:      slot.reached,
	}
	if obs != nil {
		// Only a non-nil pointer: a nil *trace.Metrics in the interface
		// would read as an observer attached.
		cfg.Metrics = obs
	}
	if c.arch != nil {
		// Checkpoints tee into the rewind-point archive.
		cfg.Backup = c.arch.Tee(slot.name, cfg.Backup)
	}
	return cfg
}

// incarnate builds the slot's next incarnation, from its replica when
// restore is set (cold: as a cold restart). Its engine gets a push observer
// only if a consumer asked for push data — a flight recorder, a span
// collector or a debug listener — and runs with none otherwise: the counts
// MetricFamilies and Metrics answer with are pulled either way.
func (c *Cluster) incarnate(slot *engineSlot, restore, cold bool) (*incarnation, error) {
	reg := trace.NewRegistry(trace.L("engine", slot.name))
	var obs *trace.Metrics
	if slot.rec != nil || slot.spans != nil || c.cfg.debugAddrs[slot.name] != "" {
		obs = &trace.Metrics{}
		obs.SetRegistry(reg)
		obs.SetRecorder(slot.rec)
		obs.SetSpans(slot.spans)
	}
	cfg := c.engineConfig(slot, obs)
	cfg.ColdStart = cold
	in := &incarnation{reg: reg, restored: restore}
	var err error
	if restore {
		in.eng, err = engine.NewFromBackup(cfg, slot.store)
	} else {
		in.eng, err = engine.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	c.collect(reg, in.eng)
	return in, nil
}

// start binds the incarnation's debug listener, if WithDebugHTTP names the
// slot, and starts its engine; a restored one has replayed by then, so its
// flight dump puts the recovery story on disk.
func (c *Cluster) start(slot *engineSlot, in *incarnation) error {
	if addr := c.cfg.debugAddrs[slot.name]; addr != "" {
		d, err := c.serveDebug(addr, slot, in)
		if err != nil {
			return err
		}
		in.debug = d
	}
	if err := in.eng.Start(); err != nil {
		return err
	}
	if in.restored {
		_ = slot.writeFlight(c.cfg.flightDir)
	}
	return nil
}

// halt shuts an incarnation down once, whichever caller comes first: the
// engine (by shutdown, its Stop or Kill), its listener, then the dump.
func (c *Cluster) halt(slot *engineSlot, in *incarnation, shutdown func()) {
	in.halted.Do(func() {
		shutdown()
		in.debug.close()
		_ = slot.writeFlight(c.cfg.flightDir)
	})
}

// writeFlight writes the slot's flight recorder to <dir>/<engine>-flight.jsonl
// (nothing without a recorder or a dir). The automatic dumps ignore its
// error: observability must never fail a shutdown or a recovery.
func (s *engineSlot) writeFlight(dir string) error {
	if s.rec == nil || dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, s.name+"-flight.jsonl"))
	if err != nil {
		return err
	}
	err = s.rec.WriteDump(f, s.name)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// collect registers an incarnation's gather-time families. Each reads what
// the engine already holds — every input's queue depth under its
// scheduler's lock, the peer set's breakers and frame counts, the
// checkpoint chain and the live clock — when /metrics or MetricFamilies
// gathers, so none is pushed on the data path and none can be stale.
func (c *Cluster) collect(reg *trace.Registry, eng *engine.Engine) {
	reg.Collect(trace.MetricQueueDepth, "Messages currently queued on the wire.", "gauge", func(emit trace.Emit) {
		for _, name := range eng.Hosted() {
			sch, _ := eng.Scheduler(name)
			for id, n := range sch.QueueDepths() {
				emit(float64(n), trace.L("component", name), trace.L("wire", sched.WireName(c.tp, c.tp.Wire(id))))
			}
		}
	})
	reg.Collect(trace.MetricDialBreaker, "Per-peer dial circuit breaker position (0 closed, 1 open, 2 half-open).", "gauge", func(emit trace.Emit) {
		for peer, ph := range eng.PeerHealth() {
			if ph.Dials {
				emit(float64(ph.Breaker), trace.L("peer", peer))
			}
		}
	})
	reg.Collect(trace.MetricPeerFrames, "Envelope frames exchanged with a peer engine (heartbeats included).", "counter", func(emit trace.Emit) {
		for peer, ph := range eng.PeerHealth() {
			emit(float64(ph.FramesSent), trace.L("peer", peer), trace.L("direction", "send"))
			emit(float64(ph.FramesReceived), trace.L("peer", peer), trace.L("direction", "recv"))
		}
	})
	reg.Collect(trace.MetricCheckpointChain, "Checkpoints in the engine's current chain: the newest full one and the deltas applied since (bounded; a restore folds them all).", "gauge", func(emit trace.Emit) {
		_, chain := eng.LastCheckpoint()
		emit(float64(chain))
	})
	reg.Collect(trace.MetricCheckpointLastVT, "Virtual time of the engine's newest checkpoint (0 before the first).", "gauge", func(emit trace.Emit) {
		last, _ := eng.LastCheckpoint()
		emit(float64(last))
	})
	reg.Collect(trace.MetricCheckpointAgeVT, "Virtual-time distance from the live clock frontier to the newest checkpoint — the bound on any rewind's replay distance.", "gauge", func(emit trace.Emit) {
		last, _ := eng.LastCheckpoint()
		emit(float64(max(0, int64(eng.MaxComponentClock())-int64(last))))
	})
	c.collectCounts(reg, eng)
}

// collectCounts registers the pulled count families: what the schedulers
// and the engine count whether or not a push observer is attached, read
// when something gathers. Every hosted wire, component and source has its
// series from launch, at zero until something happens.
func (c *Cluster) collectCounts(reg *trace.Registry, eng *engine.Engine) {
	wire := func(id msg.WireID) trace.Label { return trace.L("wire", sched.WireName(c.tp, c.tp.Wire(id))) }
	// eachScheduler visits the hosted components' counts in name order.
	eachScheduler := func(visit func(component trace.Label, counts sched.Counts)) {
		for _, name := range eng.Hosted() {
			sch, _ := eng.Scheduler(name)
			visit(trace.L("component", name), sch.Counts())
		}
	}
	// Each per-wire family reads one field off the receiving (in) or the
	// sending end of every wire.
	wireFamilies := []struct {
		name, help string
		in         bool
		read       func(w *sched.WireCounts) uint64
	}{
		{trace.MetricDelivered, "Messages delivered to handlers.", true, func(w *sched.WireCounts) uint64 { return w.Delivered }},
		{trace.MetricOutOfOrder, "Messages delivered in VT order that arrived out of real-time order.", true, func(w *sched.WireCounts) uint64 { return w.OutOfOrder }},
		{trace.MetricProbes, "Curiosity probes sent to the wire's sender.", true, func(w *sched.WireCounts) uint64 { return w.Probes }},
		{trace.MetricHoldbackDrops, "Arrivals shed because the hold-back area was at its cap.", true, func(w *sched.WireCounts) uint64 { return w.HoldbackDrops }},
		{trace.MetricBlame, "Pessimism episodes where this wire's silence frontier was the last holdout.", true, func(w *sched.WireCounts) uint64 { return w.Blame }},
		{trace.MetricSent, "Data, call, and reply envelopes emitted on the wire.", false, func(w *sched.WireCounts) uint64 { return w.Sent }},
	}
	for _, f := range wireFamilies {
		reg.Collect(f.name, f.help, "counter", func(emit trace.Emit) {
			eachScheduler(func(comp trace.Label, counts sched.Counts) {
				for i := range counts.Wires {
					if w := &counts.Wires[i]; w.In == f.in {
						emit(float64(f.read(w)), comp, wire(w.Wire))
					}
				}
			})
		})
	}
	reg.Collect(trace.MetricDuplicates, "Duplicate messages discarded by sequence/timestamp: on an input wire, or stale replies on a call-reply wire.", "counter", func(emit trace.Emit) {
		eachScheduler(func(comp trace.Label, counts sched.Counts) {
			for _, w := range counts.Wires {
				if w.In {
					emit(float64(w.Duplicates), comp, wire(w.Wire))
				}
			}
			for id, n := range counts.ReplyDups {
				emit(float64(n), comp, wire(id))
			}
		})
	})
	reg.Collect(trace.MetricSilences, "Silence promises emitted on the wire; a source's count under its own name.", "counter", func(emit trace.Emit) {
		eachScheduler(func(comp trace.Label, counts sched.Counts) {
			for _, w := range counts.Wires {
				if !w.In {
					emit(float64(w.Silences), comp, wire(w.Wire))
				}
			}
		})
		for _, src := range eng.Counts().Sources {
			emit(float64(src.Silences), trace.L("component", src.Name), wire(src.Wire))
		}
	})
	reg.Collect(trace.MetricDetFaults, "Determinism faults: estimator recalibrations and audit-chain divergences, by cause.", "counter", func(emit trace.Emit) {
		eachScheduler(func(comp trace.Label, counts sched.Counts) {
			emit(float64(counts.Recalibrations), comp, trace.L("cause", "recalibration"))
			emit(float64(counts.Divergences), comp, trace.L("cause", "replay-divergence"))
		})
		for name, n := range eng.Counts().ChainMismatches {
			emit(float64(n), trace.L("component", name), trace.L("cause", "checkpoint-chain"))
		}
	})
	reg.Collect(trace.MetricCheckpoints, "Soft checkpoints applied to the backup, by kind: full if every component shipped its whole state, else a delta.", "counter", func(emit trace.Emit) {
		counts := eng.Counts()
		emit(float64(counts.FullCheckpoints), trace.L("kind", "full"))
		emit(float64(counts.DeltaCheckpoints), trace.L("kind", "delta"))
	})
	reg.Collect(trace.MetricFailovers, "Passive-replica activations.", "counter", func(emit trace.Emit) {
		emit(float64(eng.Counts().Failovers))
	})
	reg.Collect(trace.MetricReplayRequests, "Replay-range requests issued to senders.", "counter", func(emit trace.Emit) {
		for id, n := range eng.Counts().ReplayRequests {
			emit(float64(n), wire(id))
		}
	})
	reg.Collect(trace.MetricReplayServes, "Replay-range requests served from replay buffers.", "counter", func(emit trace.Emit) {
		for id, n := range eng.Counts().ReplayServes {
			emit(float64(n), wire(id))
		}
	})
	sourceFamilies := []struct {
		name, help string
		read       func(s *engine.SourceCounts) uint64
	}{
		{trace.MetricSourceEmits, "External messages logged and injected by a source.", func(s *engine.SourceCounts) uint64 { return s.Emits }},
		{trace.MetricSourceShed, "External inputs refused at sources because buffered replay state hit its bound.", func(s *engine.SourceCounts) uint64 { return s.Shed }},
		{trace.MetricColdstartReplayed, "Logged input records re-injected from the durable WAL suffix during a cold restart.", func(s *engine.SourceCounts) uint64 { return s.ColdStartReplayed }},
	}
	for _, f := range sourceFamilies {
		reg.Collect(f.name, f.help, "counter", func(emit trace.Emit) {
			for _, src := range eng.Counts().Sources {
				emit(float64(f.read(&src)), trace.L("source", src.Name))
			}
		})
	}
}

// backupFor assembles one engine's checkpoint destination: always the warm
// in-process replica, teed into the durable file store when
// WithDurableStore is configured. With a push observer, the file store's
// write/fsync accounting lands in this incarnation's metric registry.
func (c *Cluster) backupFor(slot *engineSlot, obs *trace.Metrics) engine.Backup {
	if slot.fstore == nil {
		return slot.store
	}
	if obs != nil {
		reg := obs.Registry()
		writes := reg.Counter(trace.MetricCkptStoreWrites,
			"Checkpoints persisted by the durable checkpoint store.")
		fsyncs := reg.Counter(trace.MetricCkptStoreFsyncs,
			"fsync calls issued by the durable checkpoint store.")
		slot.fstore.SetObserver(func(int64) { writes.Inc() }, fsyncs.Inc)
	}
	return teeBackup{slot.store, slot.fstore}
}

// teeBackup fans one checkpoint out to both stores: the warm replica first
// (it backs in-process Recover), then the durable store. A durable-write
// failure is surfaced — the engine treats the checkpoint as failed and the
// next one ships full state — but the warm replica already advanced, so
// in-process failover stays as fresh as memory allows.
type teeBackup struct {
	warm    engine.Backup
	durable engine.Backup
}

func (t teeBackup) Apply(ck *checkpoint.Checkpoint) error {
	if err := t.warm.Apply(ck); err != nil {
		return err
	}
	return t.durable.Apply(ck)
}

// peerGens snapshots the highest generation the cluster has issued for
// each of the named engine's peers, seeding a new incarnation's fencing
// memory so a zombie of an older peer incarnation is rejected on first
// contact even before it re-handshakes.
func (c *Cluster) peerGens(engineName string) map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gens := make(map[string]uint64)
	for _, p := range c.peers[engineName] {
		if s, ok := c.engines[p]; ok {
			gens[p] = s.gen
		}
	}
	return gens
}

// Source returns a handle for the named external source. The handle stays
// valid across failovers of the hosting engine.
func (c *Cluster) Source(name string) (*Source, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sources[name]; ok {
		return s, nil
	}
	src, ok := c.tp.SourceByName(name)
	if !ok {
		return nil, fmt.Errorf("tart: unknown source %q", name)
	}
	w := c.tp.Wire(src.Wire)
	engName := c.tp.EngineOf(w.To)
	if _, ok := c.engines[engName]; !ok {
		return nil, fmt.Errorf("tart: source %q feeds engine %q, which this process does not host (WithEngines)", name, engName)
	}
	s := &Source{c: c, name: name, engine: engName, slot: c.engines[engName]}
	c.sources[name] = s
	return s, nil
}

// Sink registers the consumer for a named external sink. Registration
// persists across failovers. Deliveries may stutter after recovery; wrap
// the callback with DedupOutputs for exactly-once.
func (c *Cluster) Sink(name string, fn func(Output)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sink, ok := c.tp.SinkByName(name)
	if !ok {
		return fmt.Errorf("tart: unknown sink %q", name)
	}
	w := c.tp.Wire(sink.Wire)
	engName := c.tp.EngineOf(w.From)
	slot, ok := c.engines[engName]
	if !ok {
		return fmt.Errorf("tart: sink %q is served by engine %q, which this process does not host (WithEngines)", name, engName)
	}
	slot.sinks[name] = fn
	if slot.failed {
		return nil // re-registered on Recover
	}
	return slot.eng.Sink(name, func(env msg.Envelope) {
		fn(Output{Seq: env.Seq, VT: env.VT, Payload: env.Payload})
	})
}

// DedupOutputs wraps a sink callback with stutter suppression (drops
// outputs whose sequence number was already seen).
func DedupOutputs(fn func(Output)) func(Output) {
	var mu sync.Mutex
	next := uint64(1)
	return func(o Output) {
		mu.Lock()
		if o.Seq < next {
			mu.Unlock()
			return
		}
		next = o.Seq + 1
		mu.Unlock()
		fn(o)
	}
}

// Checkpoint takes an immediate soft checkpoint of the named engine and
// returns its sequence number.
func (c *Cluster) Checkpoint(engineName string) (uint64, error) {
	v, err := c.slot(engineName)
	if err != nil {
		return 0, err
	}
	return v.eng.Checkpoint()
}

// Fail simulates a fail-stop crash of the named engine: all volatile state
// is lost; the stable log and passive replica survive.
func (c *Cluster) Fail(engineName string) error {
	v, err := c.slot(engineName)
	if err != nil {
		return err
	}
	c.mu.Lock()
	v.slot.failed = true
	v.slot.live.Store(nil)
	c.mu.Unlock()
	c.halt(v.slot, v.incarnation, v.eng.Kill)
	return nil
}

// Crash fail-stops the named engine without telling the cluster's control
// plane: the slot is not marked failed, so only the failure detector (or
// an operator watching Health) will notice the silence and drive
// Fail/Recover. Chaos harnesses use Crash to exercise detection end to
// end; tests that want an immediately recoverable engine use Fail.
func (c *Cluster) Crash(engineName string) error {
	v, err := c.liveEngine(engineName)
	if errors.Is(err, ErrEngineDown) {
		return nil // already down and known to be down
	}
	if err != nil {
		return err
	}
	c.halt(v.slot, v.incarnation, v.eng.Kill)
	return nil
}

// frontierOf is an engine's virtual-time frontier. Component scheduler
// clocks are included because manual-clock deployments keep the engine
// clock pinned while schedulers advance with processed messages.
func frontierOf(eng *engine.Engine) vt.Time {
	return max(eng.NowVT(), eng.MaxComponentClock())
}

// Recover activates the named engine's passive replica: a replacement
// engine restores every component from the latest checkpoint, replays the
// stable input log's suffix, reconnects to its peers (which re-drives
// remote replay), and re-registers the cluster's sinks and sources.
func (c *Cluster) Recover(engineName string) error {
	v, err := c.slot(engineName)
	if err != nil {
		return err
	}
	slot := v.slot
	reached := frontierOf(v.eng) // the dead incarnation's clocks stay readable
	c.mu.Lock()
	if !slot.failed {
		c.mu.Unlock()
		return fmt.Errorf("tart: engine %q has not failed", engineName)
	}
	if slot.inRecover {
		c.mu.Unlock()
		return fmt.Errorf("tart: engine %q is already recovering", engineName)
	}
	// Claimed until this call returns: two incarnations started over one
	// log and one replica would both run, and only one would be stopped.
	slot.inRecover = true
	defer func() {
		c.mu.Lock()
		slot.inRecover = false
		c.mu.Unlock()
	}()
	slot.reached = max(slot.reached, reached)
	// Each incarnation gets a strictly larger generation; peers fence
	// handshakes below their max-seen, so the dead engine's zombie (should
	// its goroutines linger) cannot re-join as the live incarnation.
	slot.gen++
	gen := slot.gen
	c.mu.Unlock()
	if slot.fstore != nil {
		// Durable before visible: the new incarnation's fencing token must
		// survive a crash-during-recovery, or a later cold restart could
		// reuse a generation peers have already fenced.
		if err := slot.fstore.SetGeneration(gen); err != nil {
			return fmt.Errorf("tart: recover %q: persist generation: %w", engineName, err)
		}
	}

	if slot.store.Seq() == 0 {
		return fmt.Errorf("tart: engine %q has no checkpoint to recover from", engineName)
	}
	in, err := c.incarnate(slot, true, false)
	if err != nil {
		return fmt.Errorf("tart: recover %q: %w", engineName, err)
	}
	for name, fn := range slot.sinks {
		fn := fn
		if err := in.eng.Sink(name, func(env msg.Envelope) {
			fn(Output{Seq: env.Seq, VT: env.VT, Payload: env.Payload})
		}); err != nil {
			return err
		}
	}
	if err := c.start(slot, in); err != nil {
		c.halt(slot, in, in.eng.Stop)
		return fmt.Errorf("tart: recover %q: %w", engineName, err)
	}
	c.mu.Lock()
	slot.incarnation = in
	slot.failed = false
	slot.live.Store(in.eng)
	slot.startedAt = time.Now()
	c.mu.Unlock()
	return nil
}

// SetSilenceStrategy switches a component's silence-propagation strategy
// at runtime. Lazy, Curiosity, and Aggressive can be changed freely —
// silence communication never affects behaviour (paper §II.G.4); switching
// into or out of HyperAggressive is rejected because its bias changes
// output virtual times. The switch is logged as a determinism fault at the
// component's current clock, so a recovered engine re-derives it from the
// stable log.
func (c *Cluster) SetSilenceStrategy(component string, strategy SilenceStrategy) error {
	eng, sch, err := c.scheduler(component)
	if err != nil {
		return err
	}
	next := silence.Config{Strategy: strategy}
	if err := silence.CheckSwitch(sch.SilenceConfig(), next); err != nil {
		return err
	}
	return eng.CommitSilenceFault(component, next, sch.Clock())
}

// SilenceConfigOf reports the silence configuration currently in force on
// a component's governor, including switches installed by logged faults. A
// recovered engine re-derives the same configuration from the stable log,
// so comparing this across a failover is the replica-consistency check for
// strategy switches.
func (c *Cluster) SilenceConfigOf(component string) (SilenceConfig, error) {
	_, sch, err := c.scheduler(component)
	if err != nil {
		return SilenceConfig{}, err
	}
	return sch.SilenceConfig(), nil
}

// scheduler returns a component's scheduler and its engine's current
// incarnation.
func (c *Cluster) scheduler(component string) (*engine.Engine, *sched.Scheduler, error) {
	v, err := c.componentEngine(component)
	if err != nil {
		return nil, nil, err
	}
	sch, ok := v.eng.Scheduler(component)
	if !ok {
		return nil, nil, fmt.Errorf("tart: component %q not hosted on %q", component, v.slot.name)
	}
	return v.eng, sch, nil
}

// Metrics returns the named engine's runtime counters.
func (c *Cluster) Metrics(engineName string) (Metrics, error) {
	v, err := c.slot(engineName)
	if err != nil {
		return Metrics{}, err
	}
	return v.eng.Totals(), nil
}

// MetricFamilies returns the named engine's labeled metrics (per-wire and
// per-component series) as a gathered snapshot.
func (c *Cluster) MetricFamilies(engineName string) ([]MetricFamily, error) {
	v, err := c.slot(engineName)
	if err != nil {
		return nil, err
	}
	return v.reg.Gather(), nil
}

// TraceEvents returns the named engine's most recent flight-recorder
// events (chronological; last <= 0 returns everything retained). Requires
// WithFlightRecorder; returns nil otherwise.
func (c *Cluster) TraceEvents(engineName string, last int) ([]TraceEvent, error) {
	v, err := c.slot(engineName)
	if err != nil {
		return nil, err
	}
	return v.slot.rec.Last(last), nil
}

// Spans returns the named engine's retained spans in record order.
// Requires WithSpanTracing; returns nil otherwise. The collector survives
// Fail/Recover, so after a failover the result holds both the pre-crash
// spans and the replayed=true re-deliveries.
func (c *Cluster) Spans(engineName string) ([]Span, error) {
	v, err := c.slot(engineName)
	if err != nil {
		return nil, err
	}
	return v.slot.spans.Spans(), nil
}

// DebugAddr returns the bound debug HTTP address of the named engine ("" if
// no listener was configured or the engine is down).
func (c *Cluster) DebugAddr(engineName string) (string, error) {
	v, err := c.liveEngine(engineName)
	if errors.Is(err, ErrEngineDown) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return v.debug.addr(), nil
}

// Engines lists the cluster's engine names.
func (c *Cluster) Engines() []string { return c.tp.Engines() }

// PeerHealth describes one engine's view of a peer: whether a live
// connection exists and when traffic (heartbeats included) last arrived.
// A stale LastHeard is the fail-stop suspicion signal an external monitor
// uses to decide on Recover.
type PeerHealth = engine.PeerHealth

// Health reports the named engine's connectivity to each of its peers.
// A failed engine reports ErrEngineDown.
func (c *Cluster) Health(engineName string) (map[string]PeerHealth, error) {
	v, err := c.liveEngine(engineName)
	if err != nil {
		return nil, err
	}
	return v.eng.PeerHealth(), nil
}

// SupervisorStatus reports the failover supervisor's activity (Enabled
// false when the cluster runs without one).
func (c *Cluster) SupervisorStatus() SupervisorStatus {
	if c.sup == nil {
		return SupervisorStatus{}
	}
	return c.sup.status()
}

// Stop shuts every engine down. Idempotent.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	// The control plane stops before any engine: the supervisor must not
	// mistake the shutdowns below for crashes and "recover" them.
	close(c.bgStop)
	c.bg.Wait()
	for _, s := range c.slots() {
		c.halt(s.slot, s.incarnation, s.eng.Stop) // a no-op for an incarnation Fail or Crash stopped
		s.slot.release()
	}
}

// slotView is one engine slot with its current incarnation (the engine and
// its metrics) and failed flag read under the cluster lock. Recover swaps
// slot.incarnation, so holders use the view's, never the slot's: reading
// the field unlocked races the failover.
type slotView struct {
	slot *engineSlot
	*incarnation
	failed bool
}

func viewOf(s *engineSlot) slotView {
	return slotView{slot: s, incarnation: s.incarnation, failed: s.failed}
}

// slot looks up one hosted engine.
func (c *Cluster) slot(engineName string) (slotView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.engines[engineName]
	if !ok {
		return slotView{}, fmt.Errorf("tart: unknown engine %q", engineName)
	}
	return viewOf(s), nil
}

// slots snapshots every hosted engine slot.
func (c *Cluster) slots() []slotView {
	c.mu.Lock()
	defer c.mu.Unlock()
	views := make([]slotView, 0, len(c.engines))
	for _, s := range c.engines {
		views = append(views, viewOf(s))
	}
	return views
}

// liveEngine is slot for an engine that must be running: while the slot is
// failed it returns an error wrapping ErrEngineDown.
func (c *Cluster) liveEngine(engineName string) (slotView, error) {
	v, err := c.slot(engineName)
	if err == nil && v.failed {
		err = fmt.Errorf("tart: engine %q: %w", engineName, ErrEngineDown)
	}
	return v, err
}

// componentEngine is liveEngine for the engine hosting a component.
func (c *Cluster) componentEngine(component string) (slotView, error) {
	comp, ok := c.tp.ComponentByName(component)
	if !ok {
		return slotView{}, fmt.Errorf("tart: unknown component %q", component)
	}
	return c.liveEngine(comp.Engine)
}

// Source is an external producer handle. It stays valid across failovers
// of the engine hosting the receiving component.
type Source struct {
	c      *Cluster
	name   string
	engine string
	slot   *engineSlot
}

// current resolves the live engine's source through the slot's published
// engine, without the cluster lock; the locked lookup only builds the error
// for a failed engine.
func (s *Source) current() (*engine.Source, error) {
	if e := s.slot.live.Load(); e != nil {
		return e.Source(s.name)
	}
	v, err := s.c.liveEngine(s.engine)
	if err != nil {
		return nil, err
	}
	return v.eng.Source(s.name)
}

// Emit ingests one message stamped with the current time, returning the
// assigned virtual time. The message is durably logged before delivery.
func (s *Source) Emit(payload any) (VirtualTime, error) {
	src, err := s.current()
	if err != nil {
		return vt.Never, err
	}
	return src.Emit(payload)
}

// EmitAt ingests one message with an explicit virtual time (deterministic
// workloads); times must be strictly increasing per source.
func (s *Source) EmitAt(t VirtualTime, payload any) error {
	src, err := s.current()
	if err != nil {
		return err
	}
	return src.EmitAt(t, payload)
}

// Quiesce promises the source emits nothing at or before t, unblocking
// downstream merges that wait on this source's silence.
func (s *Source) Quiesce(t VirtualTime) error {
	src, err := s.current()
	if err != nil {
		return err
	}
	src.Quiesce(t)
	return nil
}

// End promises the source will never emit again.
func (s *Source) End() error {
	src, err := s.current()
	if err != nil {
		return err
	}
	src.End()
	return nil
}

// ErrEngineDown reports operations against a failed engine.
var ErrEngineDown = errors.New("tart: engine down")
