package load

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	tart "repro"

	"repro/internal/slo"
	"repro/internal/stats"
	"repro/internal/trace/span"
	"repro/internal/trace/span/otlp"
)

// Req is the load payload: a routing key and the wall-clock emit instant,
// carried through the pipeline so the sink can observe true end-to-end
// latency (emit to external delivery) without any side channel.
type Req struct {
	Key  uint64
	Sent int64 // UnixNano at emit
}

// reqPayloadID is Req's stable binary payload type ID; recorded in logs
// and wire frames, never renumber.
const reqPayloadID = tart.FirstUserPayloadID

var registerOnce sync.Once

func registerReq() {
	registerOnce.Do(func() {
		_ = tart.RegisterPayload(Req{}) // gob fallback for checkpoints
		_ = tart.RegisterBinaryPayload(tart.PayloadCodec{
			ID:   reqPayloadID,
			Type: reflect.TypeOf(Req{}),
			Append: func(dst []byte, v any) ([]byte, error) {
				r := v.(Req)
				var b [16]byte
				binary.LittleEndian.PutUint64(b[0:8], r.Key)
				binary.LittleEndian.PutUint64(b[8:16], uint64(r.Sent))
				return append(dst, b[:]...), nil
			},
			Decode: func(b []byte) (any, error) {
				if len(b) != 16 {
					return nil, fmt.Errorf("load: Req payload: %d bytes, want 16", len(b))
				}
				return Req{
					Key:  binary.LittleEndian.Uint64(b[0:8]),
					Sent: int64(binary.LittleEndian.Uint64(b[8:16])),
				}, nil
			},
		})
	})
}

// Gate routes each request by key to one of the shards. A named struct
// (not a bare function) so checkpoints can gob-capture it — chaos runs
// checkpoint every component at launch and on the periodic cadence.
type Gate struct {
	Shards uint64
	Routed uint64
}

// OnMessage implements tart.Component.
func (g *Gate) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	req, _ := payload.(Req)
	g.Routed++
	return nil, ctx.Send(fmt.Sprintf("s%d", req.Key%g.Shards), payload)
}

// Shard burns the scenario's per-message compute and forwards.
type Shard struct {
	Work time.Duration
	Seen uint64
}

// OnMessage implements tart.Component.
func (s *Shard) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	spin(s.Work)
	s.Seen++
	return nil, ctx.Send("out", payload)
}

// Collect fans the shard outputs back in — the deterministic-merge stress
// point — and forwards to the external sink.
type Collect struct{ Seen uint64 }

// OnMessage implements tart.Component.
func (c *Collect) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	c.Seen++
	return nil, ctx.Send("out", payload)
}

// Options configures one harness run.
type Options struct {
	Scenario Scenario
	// Rate is the base arrival rate in requests/sec (default 500).
	Rate float64
	// Duration is the emission window (default 10s); the run then drains.
	Duration time.Duration
	// Users is the key-space size routing and skew draw from (default 10k).
	Users uint64
	// Engines spreads the pipeline over this many engines (default 3).
	Engines int
	// Seed drives arrivals, key skew, and chaos (default 1).
	Seed uint64
	// Objectives are evaluated live against every observed series.
	Objectives []slo.Objective
	// Budget optionally adds a windowed error-budget policy.
	Budget *slo.BudgetPolicy
	// SpanSampleN is the static head-sampling modulus (<=0: default 1/64).
	SpanSampleN int
	// OTLPURL, when non-empty, exports spans OTLP/HTTP to this endpoint.
	OTLPURL string
	// ChaosSeed, when non-zero, crashes a random engine every ChaosEvery
	// under an automatic failover supervisor.
	ChaosSeed  uint64
	ChaosEvery time.Duration
	// TCP runs inter-engine wires over loopback TCP (BasePort up).
	TCP      bool
	BasePort int
	// Debug binds an ephemeral debug HTTP listener per engine.
	Debug bool
	// FlightDir, when non-empty, receives every engine's flight-recorder
	// dump (<FlightDir>/<engine>-flight.jsonl) when the cluster stops.
	FlightDir string
	// Progress receives live status lines (nil: silent).
	Progress io.Writer
	// OnLaunch, when set, is handed the live cluster right after Launch —
	// the CLI uses it to stop the cluster, and so write the flight dumps,
	// on SIGTERM/SIGINT.
	OnLaunch func(*tart.Cluster)
}

func (o Options) withDefaults() Options {
	if o.Rate <= 0 {
		o.Rate = 500
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.Users == 0 {
		o.Users = 10_000
	}
	if o.Engines <= 0 {
		o.Engines = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ChaosEvery <= 0 {
		o.ChaosEvery = 5 * time.Second
	}
	if o.BasePort == 0 {
		o.BasePort = 42100
	}
	return o
}

// Result is everything one run produced.
type Result struct {
	Scenario string        `json:"scenario"`
	Schedule string        `json:"schedule"`
	Duration time.Duration `json:"duration"`
	// Emitted/Dropped count emit attempts; drops are emits that still
	// failed after the failover retry (open-loop load is never paced down,
	// so drops measure ingest unavailability, not generator throttling).
	Emitted      uint64  `json:"emitted"`
	Dropped      uint64  `json:"dropped"`
	Delivered    uint64  `json:"delivered"`
	AchievedRate float64 `json:"achievedRate"`
	// Report is the final SLO evaluation (series "e2e" plus the post-run
	// "phase:*" critical-path series).
	Report slo.Report `json:"report"`
	// Failovers lists supervisor-driven recoveries (chaos runs).
	Failovers []tart.FailoverRecord `json:"failovers,omitempty"`
	// RecoveryTax charges post-failover replay work to span phases: the
	// wall-clock spent re-deliveries burned per phase, summed over sampled
	// origins. Zero-length map when no failover happened.
	RecoveryTax   map[string]time.Duration `json:"recoveryTax,omitempty"`
	ReplayedSpans int                      `json:"replayedSpans,omitempty"`
	// OTLP counts the span exporter's activity (zero without OTLPURL).
	OTLP       otlp.Stats        `json:"otlp"`
	DebugAddrs map[string]string `json:"debugAddrs,omitempty"`
}

// buildApp assembles the gate → shard_i → collect pipeline.
//
// The gate routes each request by key to one of the scenario's shards, the
// shards burn the scenario's per-message work (the slow-consumer scenario
// gives one shard a much larger cost, which the estimator advertises so
// the merge front honestly waits for it), and the collector fans the shard
// outputs back in — the deterministic-merge stress point.
func buildApp(sc Scenario, engines int) *tart.App {
	app := tart.NewApp()
	shards := sc.Shards
	if shards <= 0 {
		shards = 1
	}

	app.Register("gate", &Gate{Shards: uint64(shards)}, tart.WithConstantCost(2*time.Microsecond))

	for i := 0; i < shards; i++ {
		work := sc.Work
		if i == sc.SlowShard && sc.SlowWork > 0 {
			work = sc.SlowWork
		}
		app.Register(fmt.Sprintf("shard%d", i), &Shard{Work: work}, tart.WithConstantCost(work))
	}

	app.Register("collect", &Collect{}, tart.WithConstantCost(2*time.Microsecond))

	app.SourceInto("in", "gate", "in")
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard%d", i)
		app.Connect("gate", fmt.Sprintf("s%d", i), name, "in")
		app.Connect(name, "out", "collect", "in")
	}
	app.SinkFrom("out", "collect", "out")

	// Placement: the gate (and its source log) on e0, shards round-robin
	// over the remaining engines, the collector co-located with the last
	// shard's engine so the merge front crosses real wires.
	engName := func(i int) string { return fmt.Sprintf("e%d", i) }
	app.Place("gate", engName(0))
	for i := 0; i < shards; i++ {
		eng := engName(0)
		if engines > 1 {
			eng = engName(1 + i%(engines-1))
		}
		app.Place(fmt.Sprintf("shard%d", i), eng)
	}
	app.Place("collect", engName(engines-1))
	return app
}

// spin busy-waits d of real compute (handlers may not sleep: blocking a
// scheduler goroutine would stall the merge front, which is exactly the
// behaviour the estimator is supposed to predict).
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Run drives one open-loop load run end to end: launch, emit per the
// scenario's arrival schedule, observe e2e latency at the sink, optionally
// inject crashes and ship spans, then drain, attribute critical paths, and
// evaluate the SLOs. The SLO tracker and the span exporter are the
// harness's own: they read what the cluster publishes (sink outputs and
// Spans), and the cluster knows nothing of them.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	sc := opts.Scenario
	if sc.Name == "" {
		return nil, fmt.Errorf("load: no scenario")
	}
	registerReq()

	tracker := slo.NewTracker(opts.Objectives, opts.Budget)
	app := buildApp(sc, opts.Engines)

	copts := []tart.ClusterOption{
		tart.WithFlightRecorder(opts.FlightDir),
		tart.WithSpanTracing(opts.SpanSampleN),
	}
	if opts.ChaosSeed != 0 {
		copts = append(copts, tart.WithSupervisor(tart.SupervisorConfig{}))
	}
	if opts.TCP {
		addrs := make(map[string]string, opts.Engines)
		for i := 0; i < opts.Engines; i++ {
			addrs[fmt.Sprintf("e%d", i)] = fmt.Sprintf("127.0.0.1:%d", opts.BasePort+i)
		}
		copts = append(copts, tart.WithTCP(addrs))
	}
	if opts.Debug {
		addrs := make(map[string]string, opts.Engines)
		for i := 0; i < opts.Engines; i++ {
			addrs[fmt.Sprintf("e%d", i)] = "127.0.0.1:0"
		}
		copts = append(copts, tart.WithDebugHTTP(addrs))
	}

	cluster, err := tart.Launch(app, copts...)
	if err != nil {
		return nil, fmt.Errorf("load: launch: %w", err)
	}
	defer cluster.Stop()
	if opts.OnLaunch != nil {
		opts.OnLaunch(cluster)
	}

	var delivered, lastOutput atomic.Int64
	lastOutput.Store(time.Now().UnixNano())
	err = cluster.Sink("out", tart.DedupOutputs(func(o tart.Output) {
		req, ok := o.Payload.(Req)
		if !ok {
			return
		}
		if d := time.Since(time.Unix(0, req.Sent)); d > 0 {
			tracker.Observe("e2e", d)
		}
		delivered.Add(1)
		lastOutput.Store(time.Now().UnixNano())
	}))
	if err != nil {
		return nil, err
	}
	src, err := cluster.Source("in")
	if err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	every := func(period time.Duration, fn func()) {
		aux.Add(1)
		go func() {
			defer aux.Done()
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					fn()
				}
			}
		}()
	}
	if opts.ChaosSeed != 0 {
		every(opts.ChaosEvery, chaosStep(cluster, opts))
	}
	var ship *spanShipper
	if opts.OTLPURL != "" {
		ship = newSpanShipper(cluster, opts.OTLPURL)
		defer ship.exp.Close()
		every(500*time.Millisecond, ship.drain)
	}

	sched := sc.Schedule(opts.Rate, opts.Duration)
	rng := stats.NewRNG(opts.Seed)
	arr := newArrivals(sched, rng)
	picker := newKeyPicker(stats.NewRNG(opts.Seed^0x9e3779b97f4a7c15), opts.Users, sc.ZipfS)

	var emitted, dropped uint64
	startWall := time.Now()
	if opts.Progress != nil {
		every(time.Second, progressStep(opts.Progress, tracker, sched, startWall, &emitted))
	}

	for {
		off := arr.next()
		if off >= opts.Duration {
			break
		}
		if d := time.Until(startWall.Add(off)); d > 0 {
			time.Sleep(d)
		}
		req := Req{Key: picker.pick(), Sent: time.Now().UnixNano()}
		if _, err := src.Emit(req); err != nil {
			// Mid-failover the source's engine is down; open-loop load does
			// not pace down, but one brief retry models a client resend.
			time.Sleep(20 * time.Millisecond)
			req.Sent = time.Now().UnixNano()
			if _, err := src.Emit(req); err != nil {
				dropped++
				continue
			}
		}
		atomic.AddUint64(&emitted, 1)
	}
	emitWall := time.Since(startWall)
	_ = src.End()

	// Drain: wait for the pipeline to go quiet (no output for 500ms), with
	// a hard cap so a wedged run still reports.
	drainDeadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(drainDeadline) {
		if time.Since(time.Unix(0, lastOutput.Load())) > 500*time.Millisecond {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	aux.Wait()

	res := &Result{
		Scenario:  sc.Name,
		Schedule:  sched.String(),
		Duration:  emitWall,
		Emitted:   emitted,
		Dropped:   dropped,
		Delivered: uint64(delivered.Load()),
	}
	if s := emitWall.Seconds(); s > 0 {
		res.AchievedRate = float64(emitted) / s
	}

	// Critical-path attribution: fold every engine's sampled spans into
	// per-phase latency series, and charge replayed spans (post-failover
	// re-delivery work) to the recovery tax.
	var spans []tart.Span
	for _, e := range cluster.Engines() {
		ss, err := cluster.Spans(e)
		if err == nil {
			spans = append(spans, ss...)
		}
	}
	tax := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Replayed {
			res.ReplayedSpans++
			tax[s.Phase.String()] += s.Duration()
		}
	}
	if len(tax) > 0 {
		res.RecoveryTax = tax
	}
	// Phases in their declared order: the tracker reports series in the
	// order it first observes them.
	table := tart.CriticalPathTable(spans)
	for _, p := range span.Phases() {
		for _, b := range table {
			if d := b.ByPhase[p]; d > 0 {
				tracker.Observe("phase:"+p.String(), d)
			}
		}
	}

	if st := cluster.SupervisorStatus(); st.Enabled {
		res.Failovers = st.Failovers
	}
	if opts.Debug {
		res.DebugAddrs = make(map[string]string)
		for _, e := range cluster.Engines() {
			if addr, err := cluster.DebugAddr(e); err == nil && addr != "" {
				res.DebugAddrs[e] = addr
			}
		}
	}
	res.Report = tracker.Report()
	if ship != nil {
		res.OTLP = ship.stop()
	}
	return res, nil
}

// spanShipper hands an OTLP exporter every span the cluster recorded since
// its last drain. Span IDs increase per collector, so one watermark per
// engine exports each span once (modulo ring overwrite under extreme
// backlog, which loses oldest-first, as the collector itself does).
type spanShipper struct {
	cluster  *tart.Cluster
	exp      *otlp.Exporter
	exported map[string]uint64 // engine -> highest span ID enqueued
}

func newSpanShipper(cluster *tart.Cluster, url string) *spanShipper {
	return &spanShipper{cluster: cluster, exp: otlp.New(otlp.Config{URL: url}), exported: make(map[string]uint64)}
}

// stop stops the cluster, drains what the last periodic drain missed
// (spans stay readable after Stop, and no engine can record another), and
// closes the exporter, which flushes its queue.
func (s *spanShipper) stop() otlp.Stats {
	s.cluster.Stop()
	s.drain()
	s.exp.Close()
	return s.exp.Stats()
}

func (s *spanShipper) drain() {
	for _, e := range s.cluster.Engines() {
		spans, _ := s.cluster.Spans(e) // errs only for an engine Engines does not name
		for _, sp := range spans {
			if sp.ID > s.exported[e] {
				s.exp.Enqueue(sp)
				s.exported[e] = sp.ID
			}
		}
	}
}

// chaosStep crashes a random engine per call; the cluster's supervisor
// detects the silence and drives recovery. Crashes prefer non-gate engines
// so ingest unavailability does not dominate the signal, falling back to
// the single engine in one-engine runs.
func chaosStep(cluster *tart.Cluster, opts Options) func() {
	rng := stats.NewRNG(opts.ChaosSeed)
	victims := cluster.Engines()
	if len(victims) > 1 {
		victims = victims[1:]
	}
	return func() { _ = cluster.Crash(victims[rng.Intn(len(victims))]) }
}

// progressStep prints one live status line per call: elapsed, the
// schedule's current target rate, cumulative emits, and the live e2e tail.
func progressStep(w io.Writer, tracker *slo.Tracker, sched Schedule, start time.Time, emitted *uint64) func() {
	return func() {
		el := time.Since(start)
		s := tracker.SnapshotOf("e2e")
		fmt.Fprintf(w, "t=%-6s target=%7.0f/s emitted=%-8d p50=%-10s p99=%-10s p999=%s\n",
			el.Truncate(time.Second), sched.Rate(el), atomic.LoadUint64(emitted),
			fmtShort(s.Quantile(0.50)), fmtShort(s.Quantile(0.99)), fmtShort(s.Quantile(0.999)))
	}
}

func fmtShort(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}
