package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	tart "repro"
	"repro/internal/faults"
	"repro/internal/transport"
	"repro/internal/wal"
)

// OutputRecord is one deduplicated sink delivery — the unit the oracle
// compares. Seq, VT, and the rendered payload must all match between the
// clean and the chaotic run.
type OutputRecord struct {
	Sink    string           `json:"sink"`
	Seq     uint64           `json:"seq"`
	VT      tart.VirtualTime `json:"vt"`
	Payload string           `json:"payload"`
}

// Tape is a run's full deduplicated output stream in delivery order.
type Tape []OutputRecord

// Diff reports the first divergence between two tapes, or "" when they
// are identical — the §II.A equivalence check.
func Diff(clean, chaotic Tape) string {
	n := len(clean)
	if len(chaotic) < n {
		n = len(chaotic)
	}
	for i := 0; i < n; i++ {
		if clean[i] != chaotic[i] {
			return fmt.Sprintf("output %d diverged:\n  clean   %+v\n  chaotic %+v", i, clean[i], chaotic[i])
		}
	}
	if len(clean) != len(chaotic) {
		return fmt.Sprintf("length mismatch: clean %d outputs, chaotic %d", len(clean), len(chaotic))
	}
	return ""
}

// RunOptions configures one oracle run of the standard workload.
type RunOptions struct {
	// Rounds is how many input rounds to drive (each round emits one
	// message per source; the tape ends with 2×Rounds outputs). Default 12.
	Rounds int
	// RoundEvery paces the driver: real-time spacing between rounds, so a
	// chaos schedule has a live workload to hit. Zero blasts all rounds
	// immediately (fine for clean reference runs — pacing is wall-clock
	// only and cannot change the deterministic tape).
	RoundEvery time.Duration
	// Chaos, when non-nil, runs the workload under this fault schedule.
	// Nil produces the clean reference run (still supervised, so the two
	// runs differ only in injected faults).
	Chaos *Config
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
	// ExtraOptions appends cluster options to the standard set — e.g.
	// WithSpanTracing for the traced chaos soak. Options that change
	// virtual-time stamps would break the oracle.
	ExtraOptions []tart.ClusterOption
}

// Result is one oracle run's outcome.
type Result struct {
	Tape       Tape
	Events     []Event               // chaos actions executed (nil for clean runs)
	Supervised int                   // completed supervisor-driven failovers
	Recoveries []time.Duration       // time-to-recover per completed failover
	Status     tart.SupervisorStatus // full supervisor history
	WALFaults  uint64                // injected disk faults that fired
	NetStats   transport.NetemStats
	// Spans counts the spans every engine's collector holds at the end
	// (zero without WithSpanTracing among ExtraOptions).
	Spans int
}

// Engines and links of the standard workload topology.
var (
	// ScenarioEngines lists the workload's engines.
	ScenarioEngines = []string{"left", "mid", "right"}
	// ScenarioLinks lists its remote links (both senders feed the merger).
	ScenarioLinks = [][2]string{{"left", "right"}, {"mid", "right"}}
)

// chaosCounter is a per-word counter (checkpointable state).
type chaosCounter struct {
	Counts map[string]int
}

func (c *chaosCounter) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	w := payload.(string)
	c.Counts[w]++
	return nil, ctx.Send("out", fmt.Sprintf("%s#%d", w, c.Counts[w]))
}

// chaosMerger tags a running tally onto everything it merges.
type chaosMerger struct {
	N int
}

func (m *chaosMerger) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	m.N++
	return nil, ctx.Send("out", fmt.Sprintf("%03d:%v", m.N, payload))
}

// ScenarioApp builds a fresh instance of the standard workload: two
// per-word counters on separate engines ("left", "mid") feeding a merger
// on a third ("right"). Every call constructs new component objects, so
// the same topology can be (re)launched in one process or split across
// several.
func ScenarioApp() *tart.App {
	app := tart.NewApp()
	app.Register("sender1", &chaosCounter{Counts: map[string]int{}},
		tart.WithConstantCost(40*time.Microsecond))
	app.Register("sender2", &chaosCounter{Counts: map[string]int{}},
		tart.WithConstantCost(70*time.Microsecond))
	app.Register("merger", &chaosMerger{},
		tart.WithConstantCost(100*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.Place("sender1", "left")
	app.Place("sender2", "mid")
	app.Place("merger", "right")
	return app
}

// Run drives the standard three-engine workload — two counters on
// separate engines feeding a merger on a third — and returns its
// deduplicated output tape. The cluster always runs under the failover
// supervisor; with opts.Chaos set, a Controller injects the seeded fault
// schedule while the workload is in flight, and every crash is detected
// and recovered by the supervisor alone (the driver never calls
// Fail/Recover).
func Run(opts RunOptions) (*Result, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = 12
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	deadline := time.Now().Add(opts.Timeout)

	app := ScenarioApp()

	clusterOpts := []tart.ClusterOption{
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithCheckpointEvery(15 * time.Millisecond),
		tart.WithSupervisor(tart.SupervisorConfig{
			// Above the 250ms peer heartbeat so a slow beat is not a false
			// crash; the poll and cooldown scale from it as usual.
			SuspectAfter: 400 * time.Millisecond,
			PollEvery:    50 * time.Millisecond,
			Cooldown:     800 * time.Millisecond,
		}),
	}
	clusterOpts = append(clusterOpts, opts.ExtraOptions...)
	var nc *transport.Netem
	var inj *wal.Injector
	if opts.Chaos != nil {
		nc = transport.NewNetem(opts.Chaos.Seed)
		inj = wal.NewInjector()
		clusterOpts = append(clusterOpts, faults.WithFaults(nc, inj).(tart.ClusterOption))
	}

	cluster, err := tart.Launch(app, clusterOpts...)
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	outCh := make(chan OutputRecord, 4*opts.Rounds)
	deduped := tart.DedupOutputs(func(o tart.Output) {
		outCh <- OutputRecord{Sink: "out", Seq: o.Seq, VT: o.VT, Payload: fmt.Sprint(o.Payload)}
	})
	if err := cluster.Sink("out", deduped); err != nil {
		return nil, err
	}
	in1, err := cluster.Source("in1")
	if err != nil {
		return nil, err
	}
	in2, err := cluster.Source("in2")
	if err != nil {
		return nil, err
	}

	var ctrl *Controller
	if opts.Chaos != nil {
		cfg := *opts.Chaos
		if cfg.Engines == nil {
			cfg.Engines = ScenarioEngines
		}
		if cfg.Links == nil {
			cfg.Links = ScenarioLinks
		}
		ctrl, err = NewController(cfg, cluster, nc, inj)
		if err != nil {
			return nil, err
		}
		ctrl.Start()
		defer ctrl.Stop()
	}

	// Failovers lose the sources' volatile silence promises, stalling the
	// merger until they are re-asserted; a background pump re-promises the
	// latest issued watermark so recovery needs no operator.
	var watermark atomic.Int64
	pumpStop := make(chan struct{})
	defer close(pumpStop)
	go func() {
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-pumpStop:
				return
			case <-t.C:
				if q := watermark.Load(); q > 0 {
					_ = in1.Quiesce(tart.VirtualTime(q))
					_ = in2.Quiesce(tart.VirtualTime(q))
				}
			}
		}
	}()

	for r := 0; r < opts.Rounds; r++ {
		if r > 0 && opts.RoundEvery > 0 {
			time.Sleep(opts.RoundEvery)
		}
		vtBase := tart.VirtualTime((r + 1) * 1_000_000)
		if err := emitWithRetry(in1, vtBase, words[r%len(words)], deadline); err != nil {
			return nil, err
		}
		if err := emitWithRetry(in2, vtBase+333_000, words[(r+1)%len(words)], deadline); err != nil {
			return nil, err
		}
		q := vtBase + 500_000
		watermark.Store(int64(q))
		_ = in1.Quiesce(q)
		_ = in2.Quiesce(q)
	}

	res := &Result{}
	want := 2 * opts.Rounds
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(res.Tape) < want {
		select {
		case rec := <-outCh:
			res.Tape = append(res.Tape, rec)
		case <-timer.C:
			return res, fmt.Errorf("chaos: timed out at %d of %d outputs", len(res.Tape), want)
		}
	}

	if ctrl != nil {
		ctrl.Stop()
		res.Events = ctrl.Events()
	}
	res.Status = cluster.SupervisorStatus()
	for _, e := range cluster.Engines() {
		spans, _ := cluster.Spans(e)
		res.Spans += len(spans)
	}
	for _, f := range res.Status.Failovers {
		if f.Err == "" {
			res.Supervised++
			res.Recoveries = append(res.Recoveries, f.TimeToRecover)
		}
	}
	if inj != nil {
		res.WALFaults = inj.Injected()
	}
	if nc != nil {
		res.NetStats = nc.Stats()
	}
	return res, nil
}

var words = []string{"ash", "birch", "cedar", "fir"}

// emitWithRetry pushes one input, riding out transient failures: a down
// engine (crash window before the supervisor recovers it) and injected
// WAL faults are retried; a monotonicity rejection means a previous
// incarnation already logged this input, so replay owns it and the emit
// is complete.
func emitWithRetry(src *tart.Source, t tart.VirtualTime, payload any, deadline time.Time) error {
	for {
		err := src.EmitAt(t, payload)
		switch {
		case err == nil:
			return nil
		case strings.Contains(err.Error(), "not after last emit"):
			return nil
		case errors.Is(err, tart.ErrEngineDown) || errors.Is(err, wal.ErrInjected):
			if time.Now().After(deadline) {
				return fmt.Errorf("chaos: emit %v gave up: %w", t, err)
			}
			time.Sleep(5 * time.Millisecond)
		default:
			return err
		}
	}
}
