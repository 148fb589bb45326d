package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	tart "repro"
)

// Phase lengths as shares of --seconds. With the run_seconds BENCHMARK.json
// fixes (26) they are 10 s paced, 10 s saturate and 6 s faults.
const (
	fullRunSeconds = 26.0

	pacedShare    = 10.0 / 26
	saturateShare = 10.0 / 26
	faultsShare   = 6.0 / 26

	setupRepeats = 3  // set-ups per run; setup_s is their median
	maxTail      = 64 // messages an idle pipeline may hold back (see settle)
	settleQuiet  = 10 * time.Millisecond

	rateWindow    = time.Second // saturate: throughput sampling window
	maxInFlight   = 512         // saturate: emitted-but-undelivered cap
	faultsPerSec  = 2           // fault cycles per second of the faults phase
	checkpointGap = time.Second
	drainTimeout  = 20 * time.Second
	suffixRounds  = 150 // lockstep rounds (x2 records) left in the WAL suffix per reopen
)

// Every message carries the phase that emitted it in the two low bits of
// Sent (a 4 ns loss of resolution), so the sink attributes a delivery to
// the right phase even though phases follow each other without a drain.
const (
	tagNone   int64 = iota // lockstep rounds: checked, not measured
	tagPaced               // open loop: latency sample
	tagClosed              // closed loop (warm-up, saturate): releases a token
	tagFaults              // open loop under Fail/Recover
	tagMask   int64 = 3
)

func stamp(ns, tag int64) int64 { return ns&^tagMask | tag }

type sample struct{ sent, lat int64 }

// session is the harness side of one launched pipeline: the verifying
// sink's state and the emit/deliver counters. It outlives Fail/Recover and
// Stop/Reopen of the cluster it observes, exactly as an external consumer
// outlives the engines.
type session struct {
	pad  []byte
	next []uint64 // per key: last Count seen at the sink
	sink func(tart.Output)

	attempted atomic.Int64
	emitted   atomic.Int64
	delivered atomic.Int64
	emitErrs  atomic.Int64

	// Written only by the sink goroutine; read after a drain.
	lastVT     tart.VirtualTime
	countMiss  int64
	vtMiss     int64
	typeMiss   int64
	firstMiss  string
	pacedLat   []sample
	tokens     chan struct{} // saturate in-flight semaphore
	firstError atomic.Pointer[string]

	maxVT [2]tart.VirtualTime // newest VT each source was assigned
}

func newSession(w workload, seed uint64, pacedSecs float64) *session {
	s := &session{tokens: make(chan struct{}, maxInFlight)}
	if n := w.payload - reqFixed; n > 0 {
		s.pad = make([]byte, n)
		for i := range s.pad {
			s.pad[i] = byte(i)
		}
	}
	s.next = make([]uint64, w.keys)
	for k := range s.next {
		s.next[k] = initialCount(seed, uint64(k))
	}
	s.pacedLat = make([]sample, 0, int(w.rate*pacedSecs*1.2)+1024)
	s.sink = tart.DedupOutputs(s.onOutput)
	return s
}

// onOutput is the deduplicated sink: it checks the output and records what
// the current phase measures. One goroutine (collect's scheduler) calls it.
func (s *session) onOutput(o tart.Output) {
	now := nowNs()
	req, ok := o.Payload.(Req)
	if !ok || req.Key >= uint64(len(s.next)) {
		s.typeMiss++
		s.delivered.Add(1)
		return
	}
	if o.VT <= s.lastVT {
		s.vtMiss++
		s.noteMiss(fmt.Sprintf("sink VT %d not after %d (seq %d)", o.VT, s.lastVT, o.Seq))
	}
	s.lastVT = o.VT
	if want := s.next[req.Key] + 1; req.Count != want {
		s.countMiss++
		s.noteMiss(fmt.Sprintf("key %d: count %d, want %d (seq %d)", req.Key, req.Count, want, o.Seq))
	}
	s.next[req.Key] = req.Count
	switch req.Sent & tagMask {
	case tagPaced:
		s.pacedLat = append(s.pacedLat, sample{req.Sent, now - req.Sent})
	case tagClosed:
		select {
		case <-s.tokens:
		default:
		}
	}
	s.delivered.Add(1)
}

func (s *session) noteMiss(msg string) {
	if s.firstMiss == "" {
		s.firstMiss = msg
	}
}

func (s *session) inFlight() int64 { return s.emitted.Load() - s.delivered.Load() }

// emit sends one request on source i and accounts for it. Only source i's
// emitter (or the single-threaded lockstep driver) calls it for a given i.
func (s *session) emit(src *tart.Source, i int, key uint64, sent int64) bool {
	s.attempted.Add(1)
	vt, err := src.Emit(Req{Key: key, Sent: sent, Pad: s.pad})
	if err != nil {
		s.emitErrs.Add(1)
		msg := err.Error()
		s.firstError.CompareAndSwap(nil, &msg)
		return false
	}
	s.maxVT[i] = vt
	s.emitted.Add(1)
	return true
}

// keyPicker draws keys for one emitter: uniform, or Zipf-skewed.
type keyPicker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newKeyPicker(w workload, seed uint64) *keyPicker {
	p := &keyPicker{rng: rand.New(rand.NewSource(int64(splitmix(seed)))), n: w.keys}
	if w.zipf > 1 {
		p.zipf = rand.NewZipf(p.rng, w.zipf, 1, uint64(w.keys-1))
	}
	return p
}

func (p *keyPicker) pick() uint64 {
	if p.zipf != nil {
		return p.zipf.Uint64()
	}
	return uint64(p.rng.Intn(p.n))
}

// bench is one benchmark run of one workload.
type bench struct {
	w        workload
	seed     uint64
	secs     float64
	trace    bool
	stateDir string // this run's private directory; removed on exit
	tr       *tracer

	s        *session
	cluster  *tart.Cluster
	src      [2]*tart.Source
	lockKeys *keyPicker

	ctl sync.Mutex // serializes Checkpoint against Fail/Recover; guards ckpts
	mu  sync.Mutex // guards notes and the emit statistics

	m     map[string]metric
	notes []string

	// Raw observations kept for the traced layers and the load.* metrics.
	launchMs   []float64
	setupS     []float64
	inflight   []float64
	lateUs     []float64
	emitUs     []float64 // traced: Source.Emit durations over saturate
	emitBusyNs int64
	ckpts      []ckptCall // every timed Checkpoint call of the streaming phases
	streamFrom int64      // harness clock at the start of paced ...
	streamTo   int64      // ... and at the end of saturate
	pacedAll   []float64  // sorted paced latencies, ms
	pacedP99s  []float64  // p99 of each 1 s window of paced, ms
	cycles     []faultCycle
	reopens    []reopenCycle
	famBefore  map[string]map[string]float64
	famAfter   map[string]map[string]float64
	sysSpans   []tart.Span
	pacedSpans []tart.Span // traced: the system's spans at the end of paced
	refRate    float64     // traced: saturate throughput of an untraced rehearsal
	timeEmits  bool        // traced: time each Emit of the closed loop
	laneSink   int64       // keeps the isolated lanes' results alive
	pacedWall  float64
	stopMs     []float64
	srcRecover []float64
}

type faultCycle struct{ failMs, recoverMs, catchupMs, totalMs, dupsDropped float64 }

type reopenCycle struct {
	reopenMs float64
	replayed float64
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

func (b *bench) set(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.note("metric %s is not finite", name)
		v = 0
	}
	b.m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (b *bench) phaseSecs() (paced, saturate, faults float64) {
	secs := b.secs
	if b.trace {
		secs /= 2 // the traced run repeats the workload at half phase length
	}
	return secs * pacedShare, secs * saturateShare, secs * faultsShare
}

// launch builds a fresh pipeline in dir and attaches the session to it.
func (b *bench) launch(s *session, dir string, parent int, traced bool) (*tart.Cluster, [2]*tart.Source, error) {
	var srcs [2]*tart.Source
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, srcs, err
	}
	app := buildApp(b.seed, b.w.keys)
	copts, err := b.clusterOptions(dir, traced)
	if err != nil {
		return nil, srcs, err
	}
	id := b.tr.begin("tart.Launch", parent)
	t0 := time.Now()
	cluster, err := tart.Launch(app, copts...)
	b.launchMs = append(b.launchMs, float64(time.Since(t0))/1e6)
	b.tr.end(id)
	if err != nil {
		return nil, srcs, fmt.Errorf("launch: %w", err)
	}
	srcs, err = attach(cluster, s)
	if err == nil {
		err = waitLinked(cluster)
	}
	if err != nil {
		cluster.Stop()
		return nil, srcs, err
	}
	return cluster, srcs, nil
}

// clusterOptions is the workload's options plus, in a traced run only
// (and not for its untraced reference rehearsal), span tracing.
func (b *bench) clusterOptions(dir string, traced bool) ([]tart.ClusterOption, error) {
	copts, err := b.w.clusterOptions(dir)
	if err == nil && b.trace && traced {
		copts = append(copts, tart.WithSpanTracing(16))
	}
	return copts, err
}

func attach(cluster *tart.Cluster, s *session) ([2]*tart.Source, error) {
	var srcs [2]*tart.Source
	if err := cluster.Sink("out", s.sink); err != nil {
		return srcs, err
	}
	for i, name := range []string{"in0", "in1"} {
		src, err := cluster.Source(name)
		if err != nil {
			return srcs, err
		}
		srcs[i] = src
	}
	return srcs, nil
}

// setup launches the pipeline setupRepeats times, each on a fresh state
// directory with the fixed warm-up, and keeps the last one running.
// setup_s is the median: one slow disk flush must not move it.
func (b *bench) setup() error {
	paced, _, _ := b.phaseSecs()
	root := b.tr.begin("phase.setup", 0)
	defer b.tr.end(root)
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		dir := filepath.Join(b.stateDir, fmt.Sprintf("setup%d", k))
		s := newSession(b.w, b.seed, paced)
		// In a traced run the first rehearsal runs untraced and lends its
		// saturate rate as the reference tracing overhead is measured from.
		reference := b.trace && k == 0
		cluster, srcs, err := b.launch(s, dir, root, !reference)
		if err != nil {
			return err
		}
		b.s, b.cluster, b.src = s, cluster, srcs
		// The warm-up is paced, not closed-loop: a fixed number of messages
		// on a fixed schedule takes the same time whatever the machine's
		// mood, so setup_s moves when set-up work moves and not with
		// throughput.
		b.openLoop(tagNone, 0, 0x3A43, nil, b.w.warmup/len(b.src))
		if err := b.settle(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if err := b.checkpointRound(root); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		if k == setupRepeats-1 {
			break
		}
		if reference {
			// Same length and same statistic as the traced saturate phase.
			_, satSecs, _ := b.phaseSecs()
			deadline := time.Now().Add(time.Duration(satSecs * float64(time.Second)))
			b.refRate = median(b.closedLoopRates(deadline, func() {}))
		}
		// Tear the rehearsal down outside the timed part: end the streams
		// so the idle tail flushes, check it, stop, and free the directory.
		if err := b.endAndDrain(); err != nil {
			return err
		}
		if s.failures() != 0 {
			return fmt.Errorf("set-up %d: %s", k, s.describeFailures())
		}
		b.stop(root)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// checkpointRound checkpoints every engine, sink side first: a checkpoint
// acknowledges its inputs, which trims the upstream engine's replay
// buffers before that engine is captured in turn.
func (b *bench) checkpointRound(parent int) error {
	for _, e := range []string{engCollect, engShards, engSources} {
		b.ctl.Lock()
		at := nowNs()
		d, err := b.checkpoint(e, parent)
		if err == nil {
			b.ckpts = append(b.ckpts, ckptCall{at, float64(d) / 1e6})
		}
		b.ctl.Unlock()
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", e, err)
		}
	}
	return nil
}

func (b *bench) checkpoint(engine string, parent int) (time.Duration, error) {
	id := b.tr.begin("tart.Checkpoint:"+engine, parent)
	t0 := time.Now()
	_, err := b.cluster.Checkpoint(engine)
	d := time.Since(t0)
	b.tr.end(id)
	return d, err
}

func (b *bench) stop(parent int) {
	id := b.tr.begin("tart.Stop", parent)
	t0 := time.Now()
	b.cluster.Stop()
	b.stopMs = append(b.stopMs, float64(time.Since(t0))/1e6)
	b.tr.end(id)
}

// closedLoop runs one emitter per source, each calling Emit back to back
// with at most maxInFlight messages emitted but undelivered, until the
// deadline. atDeadline runs at the deadline before the emitters are told to
// stop, so the caller closes its measurement window on the clock.
func (b *bench) closedLoop(deadline time.Time, atDeadline func()) {
	s := b.s
	// Tokens still held by an undelivered tail of an earlier closed loop
	// are forgotten: the cap is then exceeded by at most that tail.
	for len(s.tokens) > 0 {
		<-s.tokens
	}
	done := make(chan struct{})
	timer := time.AfterFunc(time.Until(deadline), func() {
		atDeadline()
		close(done)
	})
	defer timer.Stop()
	timed := b.timeEmits
	tag := b.seed ^ uint64(s.attempted.Load())<<8
	var wg sync.WaitGroup
	for i := range b.src {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := newKeyPicker(b.w, tag^uint64(0xC105ED+i))
			var busy int64
			var durs []float64
			defer func() { b.flushEmitStats(busy, durs) }()
			for {
				select {
				case <-done:
					return
				default:
				}
				select {
				case s.tokens <- struct{}{}:
				case <-done:
					return
				}
				t0 := nowNs()
				ok := s.emit(b.src[i], i, keys.pick(), stamp(t0, tagClosed))
				if timed {
					d := nowNs() - t0
					busy += d
					durs = append(durs, float64(d)/1e3)
				}
				if !ok {
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// closedLoopRates runs closedLoop and returns the delivery rate of each
// rateWindow of it (of the whole of it, when it is shorter than one).
func (b *bench) closedLoopRates(deadline time.Time, atDeadline func()) []float64 {
	var rates []float64
	d0, t0 := b.s.delivered.Load(), time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rateWindow)
		defer tick.Stop()
		prev, prevAt := d0, t0
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				d := b.s.delivered.Load()
				rates = append(rates, float64(d-prev)/now.Sub(prevAt).Seconds())
				prev, prevAt = d, now
			}
		}
	}()
	var whole float64
	b.closedLoop(deadline, func() {
		whole = float64(b.s.delivered.Load()-d0) / time.Since(t0).Seconds()
		atDeadline()
	})
	close(stop)
	<-done
	if len(rates) == 0 {
		rates = []float64{whole}
	}
	return rates
}

func (b *bench) flushEmitStats(busy int64, durs []float64) {
	if len(durs) == 0 {
		return
	}
	b.mu.Lock()
	b.emitBusyNs += busy
	b.emitUs = append(b.emitUs, durs...)
	b.mu.Unlock()
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// settle waits for the pipeline to go quiet after traffic stops. With the
// default Curiosity strategy an idle pipeline keeps a short tail: collect
// holds a message until every shard wire is silent past it, a shard learns
// its input's silence only from the next data message (it has one input,
// so it never probes the gate), and so the last few messages wait for
// traffic that is no longer coming. They are delivered as soon as the next
// phase emits, or when the streams end. settle returns once deliveries
// have stopped with at most maxTail messages held back.
func (b *bench) settle() error {
	deadline := time.Now().Add(drainTimeout)
	last, lastChange := b.s.delivered.Load(), time.Now()
	for b.s.inFlight() > 0 {
		time.Sleep(200 * time.Microsecond)
		if d := b.s.delivered.Load(); d != last {
			last, lastChange = d, time.Now()
			continue
		}
		if time.Since(lastChange) > settleQuiet && b.s.inFlight() <= maxTail {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("settle: %d of %d emitted messages undelivered after %v",
				b.s.inFlight(), b.s.emitted.Load(), drainTimeout)
		}
	}
	return nil
}

// endAndDrain ends both streams, which flushes the idle tail, and waits
// until every emitted message was delivered.
func (b *bench) endAndDrain() error {
	if err := waitLinked(b.cluster); err != nil {
		return err
	}
	for _, src := range b.src {
		if err := src.End(); err != nil {
			return fmt.Errorf("end: %w", err)
		}
	}
	deadline := time.Now().Add(drainTimeout)
	for b.s.inFlight() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d of %d emitted messages undelivered %v after End",
				b.s.inFlight(), b.s.emitted.Load(), drainTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// openLoop emits Poisson arrivals at the workload's rate for dur, one
// emitter per source at half the rate each. Every message carries its due
// time, so a stalled Emit charges the wait to every message behind it.
//
// With until set, the emitters keep going past dur until it is closed: the
// faults phase must not fall silent while a recovery is still catching up,
// because it is traffic that releases the held-back tail (see settle).
//
// With count > 0 each emitter stops after exactly count messages instead
// of at dur: the warm-up is a fixed number of messages.
func (b *bench) openLoop(tag int64, dur time.Duration, salt uint64, until <-chan struct{}, count int) {
	s := b.s
	start := time.Now().Add(time.Millisecond)
	startNs := int64(start.Sub(epoch))
	var wg sync.WaitGroup
	for i := range b.src {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(splitmix(b.seed ^ salt ^ uint64(i+1)<<32))))
			keys := newKeyPicker(b.w, b.seed^salt^uint64(0xBEE5+i))
			perSource := b.w.rate / float64(len(b.src))
			var inflight, late []float64
			due := 0.0 // seconds after start
			for n := 0; count == 0 || n < count; n++ {
				due += rng.ExpFloat64() / perSource
				if count == 0 && due >= dur.Seconds() {
					if until == nil {
						break
					}
					select {
					case <-until:
						return
					default:
					}
				}
				dueNs := startNs + int64(due*1e9)
				if d := dueNs - nowNs(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				lateBy := float64(nowNs()-dueNs) / 1e3
				s.emit(b.src[i], i, keys.pick(), stamp(dueNs, tag))
				if tag == tagPaced {
					late = append(late, lateBy)
					inflight = append(inflight, float64(s.inFlight()))
				}
			}
			if tag == tagPaced {
				b.mu.Lock()
				b.inflight = append(b.inflight, inflight...)
				b.lateUs = append(b.lateUs, late...)
				b.mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
}

type ckptCall struct {
	at int64 // harness clock when the call started
	ms float64
}

// checkpointLoop drives Cluster.Checkpoint for every engine once per
// checkpointGap until stop closes, timing each call from outside. Sink
// side first, for the reason checkpointRound gives: in the other order an
// engine is always captured just before the acknowledgement that would
// have trimmed its buffers, and every recovery replays a second more.
func (b *bench) checkpointLoop(stop <-chan struct{}, parent int) {
	t := time.NewTicker(checkpointGap)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if err := b.checkpointRound(parent); err != nil {
			b.note("%v", err)
		}
	}
}

// liveHeapMB is the heap in use after two forced collections (the second
// empties what the first moved into the sync.Pool victim caches).
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// paced is the open-loop latency phase. It ends with the live-heap
// reading: what two forced collections cannot free after a fixed amount of
// work (the warm-up's and this phase's messages, whose number the seed
// fixes) once every engine has been checkpointed — preloaded state,
// retained checkpoints, replay buffers, the log's index. Two checkpoint
// rounds: over TCP the first round's acknowledgements may land after the
// upstream engine was captured.
func (b *bench) paced(secs float64) error {
	root := b.tr.begin("phase.paced", 0)
	defer b.tr.end(root)
	t0 := time.Now()
	b.openLoop(tagPaced, time.Duration(secs*float64(time.Second)), 0x9ACED, nil, 0)
	b.pacedWall = time.Since(t0).Seconds()
	if b.trace {
		// The span collectors are rings; saturate would overwrite these.
		b.pacedSpans = b.spans()
	}
	if err := b.settle(); err != nil {
		return err
	}
	for round := 0; round < 2; round++ {
		if err := b.checkpointRound(root); err != nil {
			return err
		}
	}
	b.set("live_heap_mb", liveHeapMB(), "MB", 1)
	return nil
}

// saturate is the closed-loop capacity phase: deliveries, CPU and
// allocations over a window that opens and closes on the clock.
// throughput_msgs_per_s is the median of the window's one-second delivery
// rates, so a one-off stall (a GC cycle over a large heap, a neighbour on
// the shared cores) does not move it; CPU and allocations are per message
// delivered over the whole window.
func (b *bench) saturate(secs float64) error {
	root := b.tr.begin("phase.saturate", 0)
	defer b.tr.end(root)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	d0 := b.s.delivered.Load()
	t0 := time.Now()
	var d1 int64
	var cpu1 float64
	var window time.Duration
	closeWindow := func() {
		d1 = b.s.delivered.Load()
		cpu1 = cpuSeconds()
		window = time.Since(t0)
		runtime.ReadMemStats(&ms1)
	}
	b.timeEmits = b.trace
	rates := b.closedLoopRates(t0.Add(time.Duration(secs*float64(time.Second))), closeWindow)
	b.timeEmits = false
	n := float64(d1 - d0)
	if n <= 0 {
		return errors.New("saturate: nothing delivered")
	}
	b.set("throughput_msgs_per_s", median(rates), "1/s", len(rates))
	b.set("cpu_us_per_msg", (cpu1-cpu0)*1e6/n, "us", int(n))
	b.set("allocs_per_msg", float64(ms1.Mallocs-ms0.Mallocs)/n, "count", int(n))
	if b.trace {
		b.set("tart.emit_busy_share", float64(b.emitBusyNs)/(window.Seconds()*1e9*float64(len(b.src))), "ratio", len(b.emitUs))
	}
	return nil
}

// faults keeps the paced load running while engine e1 is failed and
// recovered on a seed-jittered schedule. One cycle's cost is the time from
// the Fail call until everything emitted during the outage is delivered.
// Every run does this, because the correctness gate covers it; the cost is
// a layer metric (engine.recover_ms), not an end-to-end one: see README.
func (b *bench) faults(secs float64) error {
	root := b.tr.begin("phase.faults", 0)
	defer b.tr.end(root)
	n := int(math.Round(secs * faultsPerSec))
	if n < 1 {
		n = 1
	}
	spacing := time.Duration(secs * float64(time.Second) / float64(n))
	rng := rand.New(rand.NewSource(int64(splitmix(b.seed ^ 0xFA17))))
	start := time.Now()
	var loadDone sync.WaitGroup
	loadDone.Add(1)
	cyclesDone := make(chan struct{})
	go func() {
		defer loadDone.Done()
		b.openLoop(tagFaults, time.Duration(secs*float64(time.Second)), 0xFA17ED, cyclesDone, 0)
	}()
	var firstErr error
	for k := 0; k < n; k++ {
		at := start.Add(time.Duration(k)*spacing + time.Duration(rng.Float64()*0.2*float64(spacing)))
		time.Sleep(time.Until(at))
		c, err := b.failRecover(engShards, root)
		if err != nil {
			firstErr = err
			break
		}
		b.cycles = append(b.cycles, c)
	}
	close(cyclesDone)
	loadDone.Wait()
	return firstErr
}

func (b *bench) failRecover(engine string, parent int) (faultCycle, error) {
	b.ctl.Lock()
	defer b.ctl.Unlock()
	id := b.tr.begin("fault.cycle:"+engine, parent)
	defer b.tr.end(id)
	dups := func() float64 {
		if !b.trace {
			return 0 // a layer metric; an untraced run does not gather it
		}
		return familySum(b.families(engCollect), "tart_duplicates_dropped_total")
	}
	dups0 := dups()
	t0 := time.Now()
	sp := b.tr.begin("tart.Fail", id)
	err := b.cluster.Fail(engine)
	b.tr.end(sp)
	t1 := time.Now()
	if err != nil {
		return faultCycle{}, fmt.Errorf("fail %s: %w", engine, err)
	}
	sp = b.tr.begin("tart.Recover", id)
	err = b.cluster.Recover(engine)
	b.tr.end(sp)
	t2 := time.Now()
	if err != nil {
		return faultCycle{}, fmt.Errorf("recover %s: %w", engine, err)
	}
	// Caught up: everything emitted while the engine was down has been
	// delivered. Deliveries are in order, so the count suffices; the open
	// loop keeps emitting, which is what releases the last of them.
	sp = b.tr.begin("catchup", id)
	defer b.tr.end(sp)
	backlog := b.s.emitted.Load()
	deadline := t2.Add(drainTimeout)
	for b.s.delivered.Load() < backlog {
		if time.Now().After(deadline) {
			return faultCycle{}, fmt.Errorf("recover %s: sink did not catch up within %v (%d in flight)",
				engine, drainTimeout, b.s.inFlight())
		}
		time.Sleep(100 * time.Microsecond)
	}
	t3 := time.Now()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	c := faultCycle{failMs: ms(t1.Sub(t0)), recoverMs: ms(t2.Sub(t1)), catchupMs: ms(t3.Sub(t2)), totalMs: ms(t3.Sub(t0))}
	c.dupsDropped = dups() - dups0
	return c, nil
}

// lockstep emits rounds messages on each source, alternating, after
// quiescing both sources to a common virtual time. After an engine that
// hosts sources restarts, its real-time clock restarts at zero while the
// sources resume above their last logged VT, each on its own counter; a
// message then waits at the gate until the *other* source's counter has
// passed it. A common floor plus strict alternation keeps both counters
// equal, so every round is deliverable as soon as it is emitted.
func (b *bench) lockstep(rounds int) error {
	floor := b.s.maxVT[0]
	if b.s.maxVT[1] > floor {
		floor = b.s.maxVT[1]
	}
	for _, src := range b.src {
		if err := src.Quiesce(floor); err != nil {
			return err
		}
	}
	for r := 0; r < rounds; r++ {
		if err := b.lockstepRound(); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) lockstepRound() error {
	for i := range b.src {
		if !b.s.emit(b.src[i], i, b.lockKeys.pick(), stamp(nowNs(), tagNone)) {
			return errors.New("lockstep emit failed: " + *b.s.firstError.Load())
		}
	}
	return nil
}

// untilDelivered keeps lockstep rounds flowing (traffic is what releases a
// held-back tail) until the sink has delivered at least want messages.
func (b *bench) untilDelivered(want int64) error {
	deadline := time.Now().Add(drainTimeout)
	for b.s.delivered.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("delivered %d of %d within %v", b.s.delivered.Load(), want, drainTimeout)
		}
		if err := b.lockstepRound(); err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// sourceRecover fails and recovers e0, the engine that owns the sources
// and the input WAL, and times until a message emitted after the recovery
// is delivered (deliveries are in order, so everything older went first).
func (b *bench) sourceRecover(parent int) error {
	b.ctl.Lock()
	defer b.ctl.Unlock()
	id := b.tr.begin("fault.cycle:"+engSources, parent)
	defer b.tr.end(id)
	before := b.s.emitted.Load()
	t0 := time.Now()
	sp := b.tr.begin("tart.Fail", id)
	err := b.cluster.Fail(engSources)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	sp = b.tr.begin("tart.Recover", id)
	err = b.cluster.Recover(engSources)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	if err := b.lockstep(0); err != nil {
		return err
	}
	if err := b.untilDelivered(before + 1); err != nil {
		return err
	}
	b.srcRecover = append(b.srcRecover, float64(time.Since(t0))/1e6)
	return nil
}

// reopenCycles shuts the cluster down cleanly (end the streams, drain,
// Stop) with a WAL suffix beyond the newest checkpoint, and cold-restarts
// it over the same state directory with fresh component objects. A cycle
// ends when a message emitted after the restart is delivered, which
// (delivery is in order) also proves the replayed suffix went through.
func (b *bench) reopenCycles(n int) error {
	root := b.tr.begin("phase.reopen", 0)
	defer b.tr.end(root)
	dir := filepath.Join(b.stateDir, fmt.Sprintf("setup%d", setupRepeats-1))
	for k := 0; k < n; k++ {
		for _, e := range engines {
			if _, err := b.checkpoint(e, root); err != nil {
				return fmt.Errorf("reopen %d: checkpoint %s: %w", k, e, err)
			}
		}
		if err := b.lockstep(suffixRounds); err != nil {
			return fmt.Errorf("reopen %d: suffix: %w", k, err)
		}
		if err := b.endAndDrain(); err != nil {
			return fmt.Errorf("reopen %d: %w", k, err)
		}
		b.stop(root)
		app := buildApp(b.seed, b.w.keys)
		copts, err := b.clusterOptions(dir, true)
		if err != nil {
			return err
		}
		before := b.s.emitted.Load()
		id := b.tr.begin("tart.Reopen", root)
		t0 := time.Now()
		cluster, err := tart.Reopen(app, copts...)
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("reopen %d: %w", k, err)
		}
		b.cluster = cluster
		if b.src, err = attach(cluster, b.s); err != nil {
			return err
		}
		if err := waitLinked(cluster); err != nil {
			return err
		}
		if err := b.lockstep(0); err != nil {
			return err
		}
		if err := b.untilDelivered(before + 1); err != nil {
			return fmt.Errorf("reopen %d: %w", k, err)
		}
		c := reopenCycle{reopenMs: float64(time.Since(t0)) / 1e6}
		for _, e := range engines {
			c.replayed += familySum(b.families(e), "tart_coldstart_replayed_records")
		}
		b.reopens = append(b.reopens, c)
	}
	return nil
}

// families gathers one engine's metric families as name -> label
// signature -> value (histograms contribute _count and _sum).
func (b *bench) families(engine string) map[string]map[string]float64 {
	fams, err := b.cluster.MetricFamilies(engine)
	if err != nil {
		return nil
	}
	out := make(map[string]map[string]float64, len(fams))
	for _, f := range fams {
		for _, s := range f.Series {
			sig := ""
			for _, l := range s.Labels {
				sig += l.Key + "=" + l.Value + ","
			}
			if s.Hist != nil {
				put(out, f.Name+"_count", sig, float64(s.Hist.Count))
				put(out, f.Name+"_sum", sig, s.Hist.Sum)
				continue
			}
			put(out, f.Name, sig, s.Value)
		}
	}
	return out
}

func put(m map[string]map[string]float64, name, sig string, v float64) {
	if m[name] == nil {
		m[name] = make(map[string]float64)
	}
	m[name][sig] = v
}

func familySum(m map[string]map[string]float64, name string) float64 {
	t := 0.0
	for _, v := range m[name] {
		t += v
	}
	return t
}

func (s *session) failures() int64 {
	undelivered := s.emitted.Load() - s.delivered.Load()
	if undelivered < 0 {
		undelivered = -undelivered
	}
	return s.emitErrs.Load() + undelivered + s.countMiss + s.vtMiss + s.typeMiss
}

func (s *session) describeFailures() string {
	msg := fmt.Sprintf("emit errors %d, undelivered %d, count misses %d, VT misses %d, payload misses %d",
		s.emitErrs.Load(), s.emitted.Load()-s.delivered.Load(), s.countMiss, s.vtMiss, s.typeMiss)
	if e := s.firstError.Load(); e != nil {
		msg += "; first emit error: " + *e
	}
	if s.firstMiss != "" {
		msg += "; first miss: " + s.firstMiss
	}
	return msg
}

// latencyMetrics turns the paced samples into latency_p50_ms and keeps the
// tail for the load layer: the median over 1 s windows of each window's p99
// (whole-run p99 moves 2x between identical durable runs on one fsync
// stall). The tail is load.latency_p99_ms, a layer metric: see README.
func (b *bench) latencyMetrics() {
	lat := b.s.pacedLat
	if len(lat) == 0 {
		b.note("paced phase delivered nothing")
		return
	}
	all := make([]float64, len(lat))
	first := lat[0].sent
	for _, s := range lat {
		if s.sent < first {
			first = s.sent
		}
	}
	windows := map[int64][]float64{}
	for i, s := range lat {
		ms := float64(s.lat) / 1e6
		all[i] = ms
		w := (s.sent - first) / int64(time.Second)
		windows[w] = append(windows[w], ms)
	}
	var p99s []float64
	for _, xs := range windows {
		if len(xs) >= 100 {
			p99s = append(p99s, quantile(xs, 0.99))
		}
	}
	sort.Float64s(all)
	if len(p99s) == 0 {
		p99s = []float64{quantileSorted(all, 0.99)}
	}
	b.set("latency_p50_ms", quantileSorted(all, 0.50), "ms", len(all))
	b.pacedP99s = p99s
	b.pacedAll = all
}

// run executes the whole benchmark for one workload.
func (b *bench) run() error {
	pacedSecs, satSecs, faultSecs := b.phaseSecs()
	b.lockKeys = newKeyPicker(b.w, b.seed^0x10C5)
	if err := b.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if b.cluster != nil {
			b.cluster.Stop()
		}
	}()
	b.set("setup_s", median(b.setupS), "s", len(b.setupS))

	// paced, saturate and faults follow each other without an idle gap
	// beyond the heap reading and a checkpoint round, so the tail each
	// phase leaves is released by the next phase's first messages.
	streaming := b.tr.begin("streaming", 0)
	stopCkpt := make(chan struct{})
	var ckptDone sync.WaitGroup
	ckptDone.Add(1)
	go func() {
		defer ckptDone.Done()
		b.checkpointLoop(stopCkpt, streaming)
	}()
	var once sync.Once
	halt := func() {
		once.Do(func() { close(stopCkpt) })
		ckptDone.Wait()
	}
	defer halt()

	if b.trace {
		b.famBefore = b.allFamilies()
	}
	b.streamFrom = nowNs()
	if err := b.paced(pacedSecs); err != nil {
		return fmt.Errorf("paced: %w", err)
	}
	if err := b.saturate(satSecs); err != nil {
		return fmt.Errorf("saturate: %w", err)
	}
	b.streamTo = nowNs()
	if b.trace {
		b.famAfter = b.allFamilies()
	}
	// Start the faults phase from a fresh checkpoint of every engine.
	// Otherwise the first recoveries replay whatever part of the saturate
	// phase happened to follow e1's last checkpoint: up to a second of
	// traffic at fifty times the paced rate, or nothing, by luck.
	if err := b.settle(); err != nil {
		return err
	}
	if err := b.checkpointRound(streaming); err != nil {
		return fmt.Errorf("pre-faults: %w", err)
	}
	if b.trace {
		// live_heap_mb is taken at the end of paced so that it repeats; this
		// is the same reading after ten seconds at capacity, where anything
		// retained per message has had time to add up.
		b.set("load.heap_after_saturate_mb", liveHeapMB(), "MB", 1)
	}
	ferr := b.faults(faultSecs)
	halt()
	b.tr.end(streaming)
	if ferr != nil {
		return fmt.Errorf("faults: %w", ferr)
	}
	if err := b.settle(); err != nil {
		return err
	}
	b.latencyMetrics()

	if b.trace {
		if err := b.sourceRecover(0); err != nil {
			return fmt.Errorf("source-engine recover: %w", err)
		}
	}
	if n := b.reopenCount(); n > 0 {
		if err := b.reopenCycles(n); err != nil {
			return err
		}
	}
	if err := b.endAndDrain(); err != nil {
		return err
	}
	if b.trace {
		b.sysSpans = b.spans()
	}
	b.stop(0)
	b.cluster = nil
	return nil
}

func (b *bench) spans() []tart.Span {
	var all []tart.Span
	for _, e := range engines {
		if ss, err := b.cluster.Spans(e); err == nil {
			all = append(all, ss...)
		}
	}
	return all
}

// reopenCount scales the workload's reopen cycles with the run length, as
// the phases and the isolated lanes are: a full-length run does them all.
func (b *bench) reopenCount() int {
	return int(math.Ceil(float64(b.w.reopens) * min(1, b.secs/fullRunSeconds)))
}

func (b *bench) allFamilies() map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, e := range engines {
		for name, series := range b.families(e) {
			for sig, v := range series {
				put(out, name, "engine="+e+","+sig, v)
			}
		}
	}
	return out
}
