// Package chaos is TART's fault-injection harness: a seeded controller
// that drives crash–restarts, network partitions with timed heals,
// per-link fault plans, and WAL disk faults against a running cluster,
// plus an exact-replay oracle (oracle.go) asserting the paper's §II.A
// correctness criterion — the deduplicated output tape of a chaotic run
// must be byte-identical to a clean run of the same workload.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	tart "repro"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Config parameterizes a chaos schedule. The schedule — which faults hit
// which targets, in which order, at which offsets — is a pure function of
// Seed, so a run can be repeated exactly.
type Config struct {
	// Seed selects the fault schedule.
	Seed uint64
	// Engines are the crashable engine names (typically Cluster.Engines()).
	Engines []string
	// Links are the cuttable engine pairs (remote wires only).
	Links [][2]string
	// Crashes is how many crash–restart events to inject. The first
	// scheduled event is always a crash, so any chaotic run exercises at
	// least one supervised failover.
	Crashes int
	// Partitions is how many link cuts to inject; each heals after
	// PartitionHeal.
	Partitions int
	// WALFaults is how many disk-fault events to inject; each arms 1–3
	// transient append failures on one engine's stable log.
	WALFaults int
	// LinkFaults, when true, arms probabilistic duplicate+delay plans on
	// every link at start. Silent drops and reorders are deliberately NOT
	// armed on live connections: TART's resend protocol recovers losses on
	// reconnect, so message loss is modeled by partitions (which sever and
	// re-handshake), not by frames vanishing from a healthy link.
	LinkFaults bool
	// DoubleCrashProb is the per-crash probability that, once the
	// supervisor has recovered the victim, it is immediately crashed again
	// — a crash landing during or just after replay.
	DoubleCrashProb float64
	// EventEvery spaces scheduled events (default 500ms, comfortably past
	// the supervisor's detect+recover cycle).
	EventEvery time.Duration
	// PartitionHeal is how long cuts last (default 300ms).
	PartitionHeal time.Duration
}

func (c Config) withDefaults() Config {
	if c.EventEvery <= 0 {
		c.EventEvery = 500 * time.Millisecond
	}
	if c.PartitionHeal <= 0 {
		c.PartitionHeal = 300 * time.Millisecond
	}
	return c
}

// Event is one executed chaos action.
type Event struct {
	At     time.Duration `json:"at"` // offset from controller start
	Kind   string        `json:"kind"`
	Target string        `json:"target"`
	Detail string        `json:"detail,omitempty"`
}

// Event kinds.
const (
	EvCrash       = "crash"
	EvCrashReplay = "crash-replay" // re-crash right after a supervised recovery
	EvPartition   = "partition"
	EvHeal        = "heal"
	EvWALFault    = "wal-fault"
)

// Controller executes a seeded chaos schedule against a cluster. It only
// injects faults — detection and recovery are the failover supervisor's
// job — so a schedule with no supervisor attached leaves engines dead.
type Controller struct {
	cfg     Config
	cluster *tart.Cluster
	nc      *transport.Netem
	inj     *wal.Injector
	reg     *trace.Registry

	plan []Event // the schedule, fixed at construction

	stop    chan struct{}
	done    sync.WaitGroup
	mu      sync.Mutex
	events  []Event
	started time.Time
	healers []*time.Timer
}

// NewController builds the controller and fixes the schedule. nc and inj
// may be nil when the config injects no faults of that class.
func NewController(cfg Config, cluster *tart.Cluster, nc *transport.Netem, inj *wal.Injector) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Crashes > 0 && len(cfg.Engines) == 0 {
		return nil, fmt.Errorf("chaos: crashes requested but no engines given")
	}
	if cfg.Partitions > 0 && (len(cfg.Links) == 0 || nc == nil) {
		return nil, fmt.Errorf("chaos: partitions requested but no links or no network emulator")
	}
	if cfg.WALFaults > 0 && inj == nil {
		return nil, fmt.Errorf("chaos: WAL faults requested but no injector")
	}
	c := &Controller{
		cfg:     cfg,
		cluster: cluster,
		nc:      nc,
		inj:     inj,
		reg:     trace.NewRegistry(),
		stop:    make(chan struct{}),
	}
	c.plan = c.schedule()
	return c, nil
}

// schedule derives the event list from the seed: a deterministic
// interleaving of the configured fault counts, first event always a crash.
func (c *Controller) schedule() []Event {
	rng := stats.NewRNG(c.cfg.Seed)
	kinds := make([]string, 0, c.cfg.Crashes+c.cfg.Partitions+c.cfg.WALFaults)
	for i := 0; i < c.cfg.Crashes; i++ {
		kinds = append(kinds, EvCrash)
	}
	for i := 0; i < c.cfg.Partitions; i++ {
		kinds = append(kinds, EvPartition)
	}
	for i := 0; i < c.cfg.WALFaults; i++ {
		kinds = append(kinds, EvWALFault)
	}
	// Fisher–Yates, then force a crash up front so every chaotic run
	// exercises the supervisor at least once.
	for i := len(kinds) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	for i, k := range kinds {
		if k == EvCrash {
			kinds[0], kinds[i] = kinds[i], kinds[0]
			break
		}
	}
	plan := make([]Event, 0, len(kinds))
	for i, k := range kinds {
		at := c.cfg.EventEvery*time.Duration(i+1) +
			time.Duration(rng.Intn(int(c.cfg.EventEvery/4)+1))
		ev := Event{At: at, Kind: k}
		switch k {
		case EvCrash:
			ev.Target = c.cfg.Engines[rng.Intn(len(c.cfg.Engines))]
			if rng.Float64() < c.cfg.DoubleCrashProb {
				ev.Detail = "then crash during replay"
			}
		case EvPartition:
			l := c.cfg.Links[rng.Intn(len(c.cfg.Links))]
			ev.Target = l[0] + "|" + l[1]
		case EvWALFault:
			ev.Target = c.cfg.Engines[rng.Intn(len(c.cfg.Engines))]
			ev.Detail = fmt.Sprintf("%d appends", 1+rng.Intn(3))
		}
		plan = append(plan, ev)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return plan
}

// Start arms link fault plans and begins executing the schedule.
func (c *Controller) Start() {
	if c.cfg.LinkFaults && c.nc != nil {
		rng := stats.NewRNG(c.cfg.Seed ^ 0x9e3779b97f4a7c15)
		for _, l := range c.cfg.Links {
			c.nc.SetLinkPlan(l[0], l[1], transport.FaultPlan{
				DupProb: 0.05 + 0.10*rng.Float64(),
				Delay:   time.Duration(1+rng.Intn(2)) * time.Millisecond,
			})
		}
	}
	c.mu.Lock()
	c.started = time.Now()
	c.mu.Unlock()
	c.done.Add(1)
	go c.run()
}

func (c *Controller) run() {
	defer c.done.Done()
	start := time.Now()
	for _, ev := range c.plan {
		wait := time.Until(start.Add(ev.At))
		if wait > 0 {
			select {
			case <-c.stop:
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-c.stop:
			return
		default:
		}
		c.execute(ev)
	}
}

func (c *Controller) execute(ev Event) {
	switch ev.Kind {
	case EvCrash:
		base := len(c.cluster.SupervisorStatus().Failovers)
		_ = c.cluster.Crash(ev.Target)
		c.record(ev)
		if ev.Detail != "" {
			c.done.Add(1)
			go c.recrash(ev.Target, base)
		}
	case EvPartition:
		a, b, _ := strings.Cut(ev.Target, "|")
		c.nc.Cut(a, b)
		c.record(ev)
		t := time.AfterFunc(c.cfg.PartitionHeal, func() {
			c.nc.Heal(a, b)
			c.record(Event{Kind: EvHeal, Target: ev.Target})
		})
		c.mu.Lock()
		c.healers = append(c.healers, t)
		c.mu.Unlock()
	case EvWALFault:
		var n int
		fmt.Sscanf(ev.Detail, "%d appends", &n)
		c.inj.FailAppends(ev.Target, n)
		c.record(ev)
	}
}

// recrash waits for the supervisor to bring the victim back — the replay
// window — then fail-stops it again, exercising crash-during-replay.
func (c *Controller) recrash(target string, baseFailovers int) {
	defer c.done.Done()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-c.stop:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return
		}
		if len(c.cluster.SupervisorStatus().Failovers) > baseFailovers {
			_ = c.cluster.Crash(target)
			c.record(Event{Kind: EvCrashReplay, Target: target})
			return
		}
	}
}

func (c *Controller) record(ev Event) {
	c.mu.Lock()
	if ev.At == 0 && !c.started.IsZero() {
		ev.At = time.Since(c.started)
	}
	c.events = append(c.events, ev)
	c.mu.Unlock()
	c.reg.Counter(trace.MetricChaosEvents,
		"Chaos events injected, by kind.", trace.L("kind", ev.Kind)).Inc()
}

// Events returns the events executed so far, in execution order.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Registry exposes the controller's metrics (tart_chaos_events_total).
func (c *Controller) Registry() *trace.Registry { return c.reg }

// Stop halts the schedule, heals any open partition, and waits for
// in-flight chaos goroutines.
func (c *Controller) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.mu.Lock()
	healers := c.healers
	c.healers = nil
	c.mu.Unlock()
	for _, t := range healers {
		t.Stop()
	}
	if c.nc != nil {
		c.nc.HealAll()
	}
	c.done.Wait()
}
