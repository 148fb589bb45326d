package tart

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/inspect"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/silence"
	"repro/internal/slo"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/trace/span/otlp"
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
	flushDelay         time.Duration
	dialTimeout        time.Duration
	logDir             string
	manualClock        func() VirtualTime
	debugAddrs         map[string]string
	flightOn           bool
	flightDir          string
	spansOn            bool
	spanSample         int
	pprofOn            bool
	netem              *transport.Netem
	walInject          *wal.Injector
	supervisor         *SupervisorConfig
	slo                *slo.Tracker
	otlpURL            string
	adaptive           *AdaptiveSampling
	adaptRuntime       *AdaptiveRuntime
	timetravel         *TimeTravel
	loopbackFast       bool
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

// WithFlushDelay tunes the cluster's write-coalescing windows: the TCP
// sender's bounded linger (envelopes encoded within the window share one
// syscall) and the engines' silence-promise coalescing window (only the
// newest watermark per wire is transmitted per window). Zero keeps the
// defaults (50µs linger, 100µs silence window); negative disables both,
// flushing every envelope immediately.
func WithFlushDelay(d time.Duration) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.flushDelay = d })
}

// WithLoopbackFastPath opts a TCP cluster into the in-process transport
// fast path: a dial that targets another engine's listener in the same
// process hands envelopes across by pointer (no serialization, no socket)
// under a copy-on-write payload discipline — payloads must not be mutated
// after Send, the same rule the in-process transport already imposes.
// Replay and the determinism audit are unaffected: payload digests are
// computed from the registered codec, never from the transport
// representation, so socket and loopback hops produce identical
// (wire, seq, VT, digest) tuples. Dials to listeners in other processes
// fall back to real sockets automatically. No effect without WithTCP.
func WithLoopbackFastPath() ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.loopbackFast = true })
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

// WithFileLogs stores each engine's stable log (external inputs and
// determinism faults) under dir instead of in memory.
func WithFileLogs(dir string) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.logDir = dir })
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

// WithDebugHTTP binds a debug HTTP listener per engine serving /metrics
// (Prometheus text), /healthz, /trace?last=N, and /topology; addrs maps
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
// the engine also dumps the ring to <dir>/<engine>-flight.jsonl after a
// failover replay and on shutdown.
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

// WithSpanTracing turns the span layer on: deliveries, pessimism waits,
// handler runs, and transport linger windows of head-sampled origins are
// recorded as wall-clock+VT spans, queryable via Cluster.Spans, the /spans
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

// WithDebugPprof mounts net/http/pprof under /debug/pprof/ on every debug
// HTTP listener (requires WithDebugHTTP). Off by default.
func WithDebugPprof() ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.pprofOn = true })
}

// WithDialTimeout bounds how long TCP inter-engine dials wait for a
// connection before failing (black-holed peers otherwise stall the redial
// loop for the kernel's SYN patience). Zero keeps the default
// (transport.DefaultDialTimeout); negative disables the bound. No effect
// on non-TCP transports.
func WithDialTimeout(d time.Duration) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.dialTimeout = d })
}

// WithNetworkChaos threads a link-fault emulator into every inter-engine
// connection: per-link fault plans (drop, duplicate, reorder, delay) and
// partitions with timed heals, all seeded and deterministic per
// connection. The same NetworkChaos handle is used afterwards to cut and
// heal links while the cluster runs. Control-plane hellos (handshakes,
// heartbeats) are exempt from probabilistic faults — partitions are
// modeled by cutting the link, which severs them too.
func WithNetworkChaos(nc *NetworkChaos) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.netem = nc })
}

// WithWALFaults wires a disk-fault injector in front of every engine's
// stable log. Armed faults make appends fail with wal.ErrInjected before
// anything is written, modeling a full disk or a dying device; sources
// surface the error to the emitter without advancing their sequence, so a
// retry after the fault clears is exactly-once.
func WithWALFaults(inj *WALFaultInjector) ClusterOption {
	return clusterOptionFunc(func(c *clusterConfig) { c.walInject = inj })
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

	// Cluster-level observability (see observability.go): the adaptive
	// span-sampling schedule + controller registry, the OTLP exporter, and
	// the background goroutines that drive them.
	schedule *span.Schedule
	obsReg   *trace.Registry
	otlp     *otlp.Exporter
	bg       sync.WaitGroup
	bgStop   chan struct{}

	// Time travel (see timetravel.go): the rewind-point archive and the
	// sandboxed replay inspector built over it.
	arch *inspect.Archive
	insp *inspect.Inspector

	// Adaptive runtime (see observability.go): the closed-loop controller,
	// its serialization (the loop, /adapt, and tartctl all read it), and
	// the wire-label → upstream-component index blame routing uses.
	adaptCtl *adapt.Controller
	adaptMu  sync.Mutex
	wireUp   map[string]string
}

type engineSlot struct {
	name      string
	eng       *engine.Engine
	store     *checkpoint.ReplicaStore
	fstore    *checkpoint.FileStore // durable checkpoint store (WithDurableStore)
	log       wal.Log
	flog      *wal.FileLog            // the file log under log's wrappers, if any
	sinks     map[string]func(Output) // sink name -> user callback
	rec       *trace.Recorder         // shared across engine generations
	audit     *trace.AuditLog         // shared across engine generations
	spans     *span.Collector         // shared across engine generations
	gen       uint64                  // incarnation fencing token, bumped on Recover
	startedAt time.Time               // when the current incarnation started
	failed    bool
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
	if cfg.flushDelay != 0 || cfg.dialTimeout != 0 {
		if t, ok := cfg.transport.(transport.TCP); ok {
			if cfg.flushDelay != 0 {
				t.FlushDelay = cfg.flushDelay
			}
			if cfg.dialTimeout != 0 {
				t.DialTimeout = cfg.dialTimeout
			}
			cfg.transport = t
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
	if cfg.adaptive != nil || cfg.adaptRuntime != nil {
		quantum := Ticks(0)
		if cfg.adaptive != nil {
			quantum = cfg.adaptive.Quantum
		}
		if cfg.adaptRuntime != nil && cfg.adaptRuntime.Quantum > 0 {
			quantum = cfg.adaptRuntime.Quantum
		}
		c.schedule = span.NewSchedule(cfg.spanSample, quantum)
		c.obsReg = trace.NewRegistry()
		c.obsReg.Gauge(trace.MetricSampleN,
			"Current adaptive head-sampling modulus (1 traced origin in N).").
			Set(int64(c.schedule.Current().N))
	}
	if cfg.adaptRuntime != nil {
		// Baseline strategies the controller escalates from (and quiet
		// periods return to), plus the wire-label → upstream index that maps
		// blamed input wires back to the sender whose governor can help.
		baseline := make(map[string]silence.Config)
		for _, comp := range tp.Components() {
			base := specs[comp.Name].Silence
			if base.Strategy == 0 {
				base.Strategy = silence.Curiosity // the governor's own default
			}
			baseline[comp.Name] = base
		}
		c.wireUp = make(map[string]string)
		for _, w := range tp.Wires() {
			if w.From == topo.External {
				continue
			}
			c.wireUp[sched.WireName(tp, w)] = tp.Component(w.From).Name
		}
		ctlCfg := cfg.adaptRuntime.controllerConfig()
		if ctlCfg.Quantum <= 0 {
			ctlCfg.Quantum = c.schedule.Quantum()
		}
		c.adaptCtl = adapt.New(ctlCfg, baseline, c.schedule.Current().N)
	}
	if cfg.supervisor != nil {
		// Created before the engines so their debug surfaces (/supervisor,
		// appended /metrics families) can reference it; started after.
		c.sup = newSupervisor(c, *cfg.supervisor)
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
			Audits: func(engineName string) *trace.AuditLog {
				if slot, ok := c.engines[engineName]; ok {
					return slot.audit
				}
				return nil
			},
			Timeout: cfg.timetravel.Timeout,
		})
		if err != nil {
			return nil, err
		}
	}
	for _, name := range tp.Engines() {
		if !c.hosts(name) {
			continue
		}
		slot := &engineSlot{
			name:      name,
			store:     checkpoint.NewReplicaStore(),
			sinks:     make(map[string]func(Output)),
			gen:       1,
			startedAt: time.Now(),
		}
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
			slot.audit = trace.NewAuditLog()
		}
		if cfg.spansOn {
			slot.spans = span.NewCollector(name, 0, cfg.spanSample)
			if c.schedule != nil {
				// One shared epoch schedule: every engine's sources stamp
				// sampling decisions from the same append-only rate history.
				slot.spans.SetSchedule(c.schedule)
			}
		}
		slot.log, err = c.newLog(name)
		if err != nil {
			return nil, err
		}
		slot.flog, _ = slot.log.(*wal.FileLog)
		if c.arch != nil {
			// Inside the fault injector: what the injector admits (or
			// corrupts) is what both the base log and the archive persist,
			// so replays read exactly what a recovery would.
			slot.log = c.arch.WrapLog(name, slot.log)
		}
		if cfg.walInject != nil {
			slot.log = cfg.walInject.Wrap(name, slot.log)
		}
		if reopen && slot.fstore != nil && slot.fstore.Seq() > 0 {
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
			ecfg := c.engineConfig(slot)
			ecfg.ColdStart = true
			slot.eng, err = engine.NewFromBackup(ecfg, slot.store)
			if err != nil {
				return nil, fmt.Errorf("tart: reopen %q: %w", name, err)
			}
		} else {
			// First launch of this state dir (or a reopen that beat the very
			// first checkpoint — the durable launch checkpoint below closes
			// that window for every completed Launch).
			slot.eng, err = engine.New(c.engineConfig(slot))
			if err != nil {
				return nil, err
			}
		}
		c.engines[name] = slot
	}
	for _, slot := range c.engines {
		if err := slot.eng.Start(); err != nil {
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
	if c.sup != nil {
		c.sup.start()
	}
	if cfg.otlpURL != "" {
		// Created only after every engine started, so failed Launches never
		// leak the exporter's background goroutine.
		c.otlp = otlp.New(otlp.Config{URL: cfg.otlpURL})
	}
	c.startObservers()
	return c, nil
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

func (c *Cluster) newLog(engineName string) (wal.Log, error) {
	if c.cfg.durableDir != "" {
		dir := filepath.Join(c.cfg.durableDir, engineName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("tart: durable state dir for %q: %w", engineName, err)
		}
		return wal.OpenFileLog(filepath.Join(dir, "wal.log"))
	}
	if c.cfg.logDir == "" {
		return wal.NewMemLog(), nil
	}
	return wal.OpenFileLog(fmt.Sprintf("%s/%s.wal", c.cfg.logDir, engineName))
}

// hosts reports whether this process hosts the named engine (WithEngines
// restricts the set; the default is all of them).
func (c *Cluster) hosts(engineName string) bool {
	return c.cfg.hostSet == nil || c.cfg.hostSet[engineName]
}

func (c *Cluster) engineConfig(slot *engineSlot) engine.Config {
	comps := make(map[string]engine.ComponentSpec)
	for _, id := range c.tp.ComponentsOn(slot.name) {
		name := c.tp.Component(id).Name
		comps[name] = c.specs[name]
	}
	silenceEvery := c.cfg.sourceSilenceEvery
	if silenceEvery < 0 {
		silenceEvery = 0
	}
	var dump string
	if c.cfg.flightDir != "" {
		dump = filepath.Join(c.cfg.flightDir, slot.name+"-flight.jsonl")
	}
	// The cluster pre-creates each engine's metric registry so the
	// transport meter (wire-level byte/batch/fallback families) lands in
	// the same registry the engine's own series use — the families render
	// on /metrics even before (or without) any TCP traffic.
	metrics := &trace.Metrics{}
	metrics.SetRegistry(trace.NewRegistry(trace.L("engine", slot.name)))
	meter := transport.NewMeter(metrics.Registry())
	tr := c.cfg.transport
	if t, ok := tr.(transport.TCP); ok {
		// Per-engine transport copy so outgoing connections record their
		// coalescing-linger spans into this engine's collector and their
		// wire-level metrics into this engine's registry.
		t.Spans = slot.spans
		t.Meter = meter
		t.Loopback = c.cfg.loopbackFast
		tr = t
	}
	if c.cfg.netem != nil {
		// Wrap after any TCP copy so fault decisions see finished frames.
		tr = c.cfg.netem.For(slot.name, tr)
	}
	if slot.flog != nil {
		// Like the checkpoint store's, the log's commit accounting lands in
		// this incarnation's registry.
		m := metrics.Registry().WAL()
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
		Metrics:            metrics,
		Transport:          tr,
		Addrs:              c.cfg.addrs,
		Log:                slot.log,
		Backup:             c.backupFor(slot, metrics),
		CheckpointEvery:    c.cfg.checkpointEvery,
		ShedBufferedLimit:  c.cfg.shedLimit,
		SourceSilenceEvery: silenceEvery,
		SilenceFlushEvery:  c.cfg.flushDelay,
		Clock:              c.cfg.manualClock,
		Recorder:           slot.rec,
		Audit:              slot.audit,
		Spans:              slot.spans,
		DebugAddr:          c.cfg.debugAddrs[slot.name],
		DebugPprof:         c.cfg.pprofOn,
		FlightDump:         dump,
		Generation:         slot.gen,
		PeerGens:           c.peerGens(slot.name),
	}
	if c.sup != nil {
		sup := c.sup
		cfg.SupervisorInfo = func() any { return sup.status() }
	}
	if tracker := c.cfg.slo; tracker != nil {
		cfg.SLOInfo = func() any { return tracker.Report() }
	}
	if c.adaptCtl != nil {
		cfg.AdaptInfo = func() any { return c.AdaptStatus() }
		// The span-driven controller owns recalibration; the scheduler's
		// sample-count refits would race it with a second fault stream.
		cfg.DisableCalibration = true
	}
	cfg.ExtraMetrics = c.extraMetrics()
	if c.arch != nil {
		// Checkpoints tee into the rewind-point archive, and the debug
		// listener answers /rewind through the inspector.
		cfg.Backup = c.arch.Tee(slot.name, cfg.Backup)
		cfg.RewindInfo = c.rewindInfo
	}
	return cfg
}

// backupFor assembles one engine's checkpoint destination: always the warm
// in-process replica, teed into the durable file store when
// WithDurableStore is configured. The file store's write/fsync accounting
// lands in this incarnation's metric registry.
func (c *Cluster) backupFor(slot *engineSlot, metrics *trace.Metrics) engine.Backup {
	if slot.fstore == nil {
		return slot.store
	}
	reg := metrics.Registry()
	writes := reg.Counter(trace.MetricCkptStoreWrites,
		"Checkpoints persisted by the durable checkpoint store.")
	fsyncs := reg.Counter(trace.MetricCkptStoreFsyncs,
		"fsync calls issued by the durable checkpoint store.")
	slot.fstore.SetObserver(func(int64) { writes.Inc() }, fsyncs.Inc)
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
	s := &Source{c: c, name: name, engine: engName}
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
	slot, err := c.slot(engineName)
	if err != nil {
		return 0, err
	}
	return slot.eng.Checkpoint()
}

// Fail simulates a fail-stop crash of the named engine: all volatile state
// is lost; the stable log and passive replica survive.
func (c *Cluster) Fail(engineName string) error {
	slot, err := c.slot(engineName)
	if err != nil {
		return err
	}
	c.mu.Lock()
	slot.failed = true
	c.mu.Unlock()
	slot.eng.Kill()
	return nil
}

// Crash fail-stops the named engine without telling the cluster's control
// plane: the slot is not marked failed, so only the failure detector (or
// an operator watching Health) will notice the silence and drive
// Fail/Recover. Chaos harnesses use Crash to exercise detection end to
// end; tests that want an immediately recoverable engine use Fail.
func (c *Cluster) Crash(engineName string) error {
	slot, err := c.slot(engineName)
	if err != nil {
		return err
	}
	c.mu.Lock()
	eng := slot.eng
	failed := slot.failed
	c.mu.Unlock()
	if failed {
		return nil // already down and known to be down
	}
	eng.Kill()
	return nil
}

// Recover activates the named engine's passive replica: a replacement
// engine restores every component from the latest checkpoint, replays the
// stable input log's suffix, reconnects to its peers (which re-drives
// remote replay), and re-registers the cluster's sinks and sources.
func (c *Cluster) Recover(engineName string) error {
	slot, err := c.slot(engineName)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if !slot.failed {
		c.mu.Unlock()
		return fmt.Errorf("tart: engine %q has not failed", engineName)
	}
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
	eng, err := engine.NewFromBackup(c.engineConfig(slot), slot.store)
	if err != nil {
		return fmt.Errorf("tart: recover %q: %w", engineName, err)
	}
	for name, fn := range slot.sinks {
		fn := fn
		if err := eng.Sink(name, func(env msg.Envelope) {
			fn(Output{Seq: env.Seq, VT: env.VT, Payload: env.Payload})
		}); err != nil {
			return err
		}
	}
	if err := eng.Start(); err != nil {
		eng.Stop()
		return fmt.Errorf("tart: recover %q: %w", engineName, err)
	}
	c.mu.Lock()
	slot.eng = eng
	slot.failed = false
	slot.startedAt = time.Now()
	c.mu.Unlock()
	return nil
}

// SetSilenceStrategy switches a component's silence-propagation strategy
// at runtime. Lazy, Curiosity, and Aggressive can be changed freely —
// silence communication never affects behaviour (paper §II.G.4); switching
// hyper-aggressive bias on or off is rejected because it changes output
// virtual times (it would need a logged determinism fault).
func (c *Cluster) SetSilenceStrategy(component string, strategy SilenceStrategy) error {
	comp, ok := c.tp.ComponentByName(component)
	if !ok {
		return fmt.Errorf("tart: unknown component %q", component)
	}
	slot, err := c.slot(comp.Engine)
	if err != nil {
		return err
	}
	c.mu.Lock()
	failed := slot.failed
	eng := slot.eng
	c.mu.Unlock()
	if failed {
		return fmt.Errorf("tart: component %q: %w", component, ErrEngineDown)
	}
	sch, ok := eng.Scheduler(component)
	if !ok {
		return fmt.Errorf("tart: component %q not hosted on %q", component, comp.Engine)
	}
	return sch.SetSilence(silence.Config{Strategy: strategy})
}

// SilenceConfigOf reports the silence configuration currently in force on
// a component's governor — including changes installed by the adaptive
// runtime's logged faults. A recovered engine re-derives the same
// configuration from the stable log, so comparing this across a failover
// is the replica-consistency check for adaptive decisions.
func (c *Cluster) SilenceConfigOf(component string) (SilenceConfig, error) {
	comp, ok := c.tp.ComponentByName(component)
	if !ok {
		return SilenceConfig{}, fmt.Errorf("tart: unknown component %q", component)
	}
	slot, err := c.slot(comp.Engine)
	if err != nil {
		return SilenceConfig{}, err
	}
	c.mu.Lock()
	failed := slot.failed
	eng := slot.eng
	c.mu.Unlock()
	if failed {
		return SilenceConfig{}, fmt.Errorf("tart: component %q: %w", component, ErrEngineDown)
	}
	sch, ok := eng.Scheduler(component)
	if !ok {
		return SilenceConfig{}, fmt.Errorf("tart: component %q not hosted on %q", component, comp.Engine)
	}
	return sch.SilenceConfig(), nil
}

// EstimatorCoeffs reports the coefficients a component's calibrated
// estimator has in force at its engine's current virtual time (nil when
// the component uses a static estimator).
func (c *Cluster) EstimatorCoeffs(component string) ([]float64, error) {
	comp, ok := c.tp.ComponentByName(component)
	if !ok {
		return nil, fmt.Errorf("tart: unknown component %q", component)
	}
	slot, err := c.slot(comp.Engine)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	failed := slot.failed
	eng := slot.eng
	c.mu.Unlock()
	if failed {
		return nil, fmt.Errorf("tart: component %q: %w", component, ErrEngineDown)
	}
	cal, ok := eng.Calibrated(component)
	if !ok {
		return nil, nil
	}
	return cal.Coeffs(eng.ComponentVT(component)), nil
}

// Metrics returns the named engine's runtime counters.
func (c *Cluster) Metrics(engineName string) (Metrics, error) {
	slot, err := c.slot(engineName)
	if err != nil {
		return Metrics{}, err
	}
	return slot.eng.Metrics().Snapshot(), nil
}

// MetricFamilies returns the named engine's labeled metrics (per-wire and
// per-component series) as a gathered snapshot.
func (c *Cluster) MetricFamilies(engineName string) ([]MetricFamily, error) {
	slot, err := c.slot(engineName)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	eng := slot.eng
	c.mu.Unlock()
	return eng.Metrics().Registry().Gather(), nil
}

// MetricsText renders the named engine's labeled metrics in Prometheus
// text exposition format — the same bytes its /metrics endpoint serves.
func (c *Cluster) MetricsText(engineName string) (string, error) {
	slot, err := c.slot(engineName)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	eng := slot.eng
	c.mu.Unlock()
	var b strings.Builder
	if err := eng.Metrics().Registry().WritePrometheus(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// TraceEvents returns the named engine's most recent flight-recorder
// events (chronological; last <= 0 returns everything retained). Requires
// WithFlightRecorder; returns nil otherwise.
func (c *Cluster) TraceEvents(engineName string, last int) ([]TraceEvent, error) {
	slot, err := c.slot(engineName)
	if err != nil {
		return nil, err
	}
	return slot.rec.Last(last), nil
}

// Spans returns the named engine's retained spans in record order.
// Requires WithSpanTracing; returns nil otherwise. The collector survives
// Fail/Recover, so after a failover the result holds both the pre-crash
// spans and the replayed=true re-deliveries.
func (c *Cluster) Spans(engineName string) ([]Span, error) {
	slot, err := c.slot(engineName)
	if err != nil {
		return nil, err
	}
	return slot.spans.Spans(), nil
}

// DebugAddr returns the bound debug HTTP address of the named engine ("" if
// no listener was configured or the engine is down).
func (c *Cluster) DebugAddr(engineName string) (string, error) {
	slot, err := c.slot(engineName)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	failed := slot.failed
	eng := slot.eng
	c.mu.Unlock()
	if failed {
		return "", nil
	}
	return eng.DebugAddr(), nil
}

// FlightDumpPath returns where the named engine writes its flight-recorder
// dump ("" when WithFlightRecorder was not given a directory).
func (c *Cluster) FlightDumpPath(engineName string) (string, error) {
	if _, err := c.slot(engineName); err != nil {
		return "", err
	}
	if c.cfg.flightDir == "" {
		return "", nil
	}
	return filepath.Join(c.cfg.flightDir, engineName+"-flight.jsonl"), nil
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
	slot, err := c.slot(engineName)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	failed := slot.failed
	eng := slot.eng
	c.mu.Unlock()
	if failed {
		return nil, fmt.Errorf("tart: engine %q: %w", engineName, ErrEngineDown)
	}
	return eng.PeerHealth(), nil
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
	if c.sup != nil {
		// Stop supervision first so engine shutdowns below are not mistaken
		// for crashes and "recovered".
		c.sup.stopLoop()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	slots := make([]*engineSlot, 0, len(c.engines))
	for _, s := range c.engines {
		slots = append(slots, s)
	}
	c.mu.Unlock()
	// Stop the observability goroutines before the engines so the OTLP
	// loop's final drain sees every collector's last spans.
	close(c.bgStop)
	c.bg.Wait()
	for _, s := range slots {
		if !s.failed {
			s.eng.Stop()
		}
		_ = s.log.Close()
		if s.fstore != nil {
			_ = s.fstore.Close()
		}
	}
}

// DumpFlightRecorders writes every hosted engine's flight-recorder ring to
// <dir>/<engine>-flight.jsonl (requires WithFlightRecorder; engines
// without a recorder are skipped). Signal handlers use it to persist the
// last seconds of structured history on SIGTERM — the post-mortem story a
// cold restart would otherwise lose with the process.
func (c *Cluster) DumpFlightRecorders(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c.mu.Lock()
	slots := make([]*engineSlot, 0, len(c.engines))
	for _, s := range c.engines {
		slots = append(slots, s)
	}
	c.mu.Unlock()
	var firstErr error
	for _, s := range slots {
		if s.rec == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, s.name+"-flight.jsonl"))
		if err == nil {
			err = s.rec.WriteDump(f, s.name)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (c *Cluster) slot(engineName string) (*engineSlot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.engines[engineName]
	if !ok {
		return nil, fmt.Errorf("tart: unknown engine %q", engineName)
	}
	return slot, nil
}

// Source is an external producer handle. It stays valid across failovers
// of the engine hosting the receiving component.
type Source struct {
	c      *Cluster
	name   string
	engine string
}

// Name returns the source name.
func (s *Source) Name() string { return s.name }

func (s *Source) current() (*engine.Source, error) {
	slot, err := s.c.slot(s.engine)
	if err != nil {
		return nil, err
	}
	s.c.mu.Lock()
	failed := slot.failed
	eng := slot.eng
	s.c.mu.Unlock()
	if failed {
		return nil, fmt.Errorf("tart: source %q on engine %q: %w", s.name, s.engine, ErrEngineDown)
	}
	return eng.Source(s.name)
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
