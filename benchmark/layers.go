package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	tart "repro"

	"repro/internal/checkpoint"
	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/silence"
	"repro/internal/slo"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vt"
	"repro/internal/wal"
)

// layers prices each module from outside. Part of it reads what the traced
// run already observed (harness-timed calls, the system's metric families
// and sampled spans); the rest are isolated lanes: timed calls into one
// module's exported functions with the workload's own payload, state
// object, transport and state directory. It then writes
// <workload>-trace.json and <workload>-layers.json into resultsDir.
func (b *bench) layers(env envInfo, resultsDir string) error {
	lanes := b.tr.begin("lanes", 0)
	b.tartLayer()
	b.loadLayer()
	b.engineLayer()
	b.familyLayers()
	b.spanLayers()
	b.set("wal.fsync_probe_us", env.FsyncProbeUs, "us", 1)
	steps := []struct {
		name string
		fn   func(parent int) error
	}{
		{"wal", b.walLane},
		{"sched", b.schedLane},
		{"silence", b.silenceLane},
		{"estimator", b.estimatorLane},
		{"msg", b.msgLane},
		{"transport", b.transportLane},
		{"checkpoint", b.checkpointLane},
		{"supervisor", b.supervisorLane},
		{"slo", b.sloLane},
	}
	for _, st := range steps {
		id := b.tr.begin("lane."+st.name, lanes)
		err := st.fn(id)
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s lane: %w", st.name, err)
		}
	}
	b.tr.end(lanes)
	return b.writeTraceFiles(resultsDir)
}

func (b *bench) tartLayer() {
	b.set("tart.launch_ms", median(b.launchMs), "ms", len(b.launchMs))
	b.set("tart.stop_ms", median(b.stopMs), "ms", len(b.stopMs))
	sort.Float64s(b.emitUs)
	b.set("tart.emit_us_p50", quantileSorted(b.emitUs, 0.50), "us", len(b.emitUs))
	b.set("tart.emit_us_p99", quantileSorted(b.emitUs, 0.99), "us", len(b.emitUs))
	var calls []float64
	for _, c := range b.ckpts {
		if c.at >= b.streamFrom && c.at < b.streamTo {
			calls = append(calls, c.ms)
		}
	}
	b.set("tart.checkpoint_call_ms_p50", median(calls), "ms", len(calls))
	b.set("tart.checkpoint_call_ms_max", maxOf(calls), "ms", len(calls))
	b.set("tart.checkpoint_busy_share", sum(calls)/(float64(b.streamTo-b.streamFrom)/1e6), "ratio", len(calls))
}

func (b *bench) loadLayer() {
	all := b.pacedAll
	b.set("load.latency_p99_ms", median(b.pacedP99s), "ms", len(b.pacedP99s))
	b.set("load.latency_p999_ms", quantileSorted(all, 0.999), "ms", len(all))
	b.set("load.latency_max_ms", maxOf(all), "ms", len(all))
	b.set("load.achieved_rate", float64(len(all))/b.pacedWall, "1/s", len(all))
	b.set("load.lateness_us_p99", quantile(b.lateUs, 0.99), "us", len(b.lateUs))
	half := len(b.inflight) / 2
	growth := 0.0
	if half > 0 {
		// inflight holds source 0's samples then source 1's, each in time
		// order; the halves of each are what is compared.
		q := len(b.inflight) / 4
		early := append(append([]float64(nil), b.inflight[:q]...), b.inflight[half:half+q]...)
		late := append(append([]float64(nil), b.inflight[q:half]...), b.inflight[half+q:]...)
		growth = median(late) - median(early)
	}
	b.set("load.backlog_growth", growth, "count", len(b.inflight))
	attempted := float64(b.s.attempted.Load())
	b.set("load.failed_ratio", float64(b.s.failures())/attempted, "ratio", int(attempted))
}

// engineLayer splits engine.recover_ms into its three parts. It is the
// median of the cycles' totals; the parts are read off the same (one or
// two middle) cycles, so they tile it exactly.
func (b *bench) engineLayer() {
	cycles := append([]faultCycle(nil), b.cycles...)
	sort.Slice(cycles, func(i, j int) bool { return cycles[i].totalMs < cycles[j].totalMs })
	part := func(f func(faultCycle) float64) float64 {
		xs := make([]float64, len(cycles))
		for i, c := range cycles {
			xs[i] = f(c)
		}
		return quantileSorted(xs, 0.5) // xs is in the totals' order
	}
	b.set("engine.fail_ms", part(func(c faultCycle) float64 { return c.failMs }), "ms", len(cycles))
	b.set("engine.recover_call_ms", part(func(c faultCycle) float64 { return c.recoverMs }), "ms", len(cycles))
	b.set("engine.catchup_ms", part(func(c faultCycle) float64 { return c.catchupMs }), "ms", len(cycles))
	b.set("engine.recover_ms", part(func(c faultCycle) float64 { return c.totalMs }), "ms", len(cycles))
	if n := len(cycles); n > 0 {
		b.set("engine.recover_max_ms", cycles[n-1].totalMs, "ms", n)
	}
	var dups []float64
	for _, c := range cycles {
		dups = append(dups, c.dupsDropped)
	}
	b.set("engine.replayed_per_recover", median(dups), "count", len(dups))
	b.set("engine.recover_source_ms", median(b.srcRecover), "ms", len(b.srcRecover))
	var ms, replayed []float64
	for _, c := range b.reopens {
		ms = append(ms, c.reopenMs)
		replayed = append(replayed, c.replayed)
	}
	b.set("engine.reopen_ms", median(ms), "ms", len(ms))
	b.set("engine.reopen_replayed_records", median(replayed), "count", len(ms))
	rate := 0.0
	if m := median(ms); m > 0 {
		rate = median(replayed) / (m / 1e3)
	}
	b.set("engine.reopen_records_per_s", rate, "1/s", len(ms))
}

// familyLayers reads the system's own counters over paced + saturate.
func (b *bench) familyLayers() {
	delta := func(name string) float64 { return familySum(b.famAfter, name) - familySum(b.famBefore, name) }
	msgs := delta("tart_source_emits_total")
	per := func(name string) float64 {
		if msgs <= 0 {
			return 0
		}
		return delta(name) / msgs
	}
	n := int(msgs)
	b.set("silence.silences_per_msg", per("tart_silences_total"), "count", n)
	b.set("silence.probes_per_msg", per("tart_probes_total"), "count", n)
	sent := delta("tart_silences_total")
	useful := 0.0
	if sent > 0 {
		useful = (sent - delta("tart_silences_coalesced_total")) / sent
	}
	b.set("silence.coalesced_ratio", useful, "ratio", int(sent))
	ooo := 0.0
	if d := delta("tart_delivered_total"); d > 0 {
		ooo = delta("tart_out_of_rt_order_total") / d
	}
	b.set("sched.out_of_order_ratio", ooo, "ratio", n)
	depth := 0.0
	for _, v := range b.famAfter["tart_queue_depth"] {
		if v > depth {
			depth = v
		}
	}
	b.set("sched.queue_depth_max", depth, "count", len(b.famAfter["tart_queue_depth"]))
	b.set("transport.bytes_per_msg", sumWhere(b.famAfter, b.famBefore, "tart_transport_bytes_total", "dir=sent")/nonZero(msgs), "B", n)
	batches := delta("tart_transport_frames_per_writev_count")
	fpw := 0.0
	if batches > 0 {
		fpw = delta("tart_transport_frames_per_writev_sum") / batches
	}
	b.set("transport.frames_per_writev", fpw, "count", int(batches))
	errs := delta("tart_estimator_error_seconds_count")
	errUs := 0.0
	if errs > 0 {
		errUs = delta("tart_estimator_error_seconds_sum") / errs * 1e6
	}
	// The family is a histogram of (charged - measured) per handler run;
	// its mean is what the counters give without the buckets.
	b.set("estimator.error_us_mean", errUs, "us", int(errs))
	enc, dec := msg.FallbackCounts()
	b.set("msg.fallbacks", float64(enc+dec), "count", 1)
}

func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// sumWhere sums after-before over the series of a family whose label
// signature contains substr.
func sumWhere(after, before map[string]map[string]float64, name, substr string) float64 {
	t := 0.0
	for sig, v := range after[name] {
		if strings.Contains(sig, substr) {
			t += v - before[name][sig]
		}
	}
	return t
}

// spanLayers tiles the paced phase's sampled origins into critical-path
// phases and reconciles them with the latency the harness measured.
func (b *bench) spanLayers() {
	var pess, queue, compute, transp, linger, totals []float64
	for _, bd := range tart.CriticalPathTable(b.pacedSpans) {
		if bd.Replayed || bd.Total <= 0 {
			continue
		}
		us := func(p tart.SpanPhase) float64 { return float64(bd.ByPhase[p]) / 1e3 }
		pess = append(pess, us(tart.PhasePessimism))
		queue = append(queue, us(tart.PhaseQueueing))
		compute = append(compute, us(tart.PhaseCompute))
		transp = append(transp, us(tart.PhaseTransport))
		linger = append(linger, us(tart.PhaseLinger))
		totals = append(totals, float64(bd.Total)/1e3)
	}
	n := len(totals)
	b.set("sched.pessimism_us_p50", quantile(pess, 0.50), "us", n)
	b.set("sched.pessimism_us_p99", quantile(pess, 0.99), "us", n)
	b.set("sched.queueing_us_p50", quantile(queue, 0.50), "us", n)
	b.set("sched.compute_us_p50", quantile(compute, 0.50), "us", n)
	b.set("transport.span_us_p50", quantile(transp, 0.50), "us", n)
	b.set("transport.linger_us_p50", quantile(linger, 0.50), "us", n)
	e2e := b.m["latency_p50_ms"].Value * 1e3
	residual := 0.0
	if e2e > 0 && n > 0 {
		residual = (e2e - median(totals)) / e2e * 100
	}
	b.set("trace.residual_pct", residual, "%", n)
	b.set("trace.spans_per_msg", float64(len(b.pacedSpans))/nonZero(float64(len(b.pacedAll))), "count", len(b.pacedSpans))
	overhead := 0.0
	if b.refRate > 0 {
		overhead = (b.refRate - b.m["throughput_msgs_per_s"].Value) / b.refRate * 100
	}
	b.set("trace.overhead_pct", overhead, "%", 1)
}

// laneN scales an isolated lane's iteration count with the run length, so
// that a smoke run does not spend a minute in lanes; a full-length run uses
// n as written.
func (b *bench) laneN(n int) int {
	if scaled := int(float64(n) * b.secs / fullRunSeconds); scaled < n {
		n = max(scaled, 100)
	}
	return n
}

// laneReq is the payload the isolated lanes push through a module: the
// workload's own.
func (b *bench) laneReq(i int) Req {
	return Req{Key: uint64(i % b.w.keys), Count: uint64(i), Sent: int64(i), Pad: b.s.pad}
}

// walLane times FileLog in the workload's state directory.
func (b *bench) walLane(parent int) error {
	n := b.laneN(1500)
	dir := filepath.Join(b.stateDir, "lanes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "wal.log")
	log, err := wal.OpenFileLog(path)
	if err != nil {
		return err
	}
	defer func() { log.Close() }()
	appendN := func(source string, from, count int, durs *[]float64) error {
		for i := from; i < from+count; i++ {
			t0 := nowNs()
			err := log.AppendInput(wal.InputRecord{Source: source, Seq: uint64(i), VT: vt.Time(i), Payload: b.laneReq(i)})
			if err != nil {
				return err
			}
			if durs != nil {
				*durs = append(*durs, float64(nowNs()-t0)/1e3)
			}
		}
		return nil
	}
	// One caller.
	var durs []float64
	id := b.tr.begin("wal.AppendInput x1", parent)
	t0 := time.Now()
	err = appendN("in0", 1, n, &durs)
	c1 := time.Since(t0)
	b.tr.end(id)
	if err != nil {
		return err
	}
	// Two callers on the one log, as the two sources of e0 are.
	id = b.tr.begin("wal.AppendInput x2", parent)
	t0 = time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = appendN("in0", n+1, n/2, nil) }()
	go func() { defer wg.Done(); errs[1] = appendN("in1", 1, n/2, nil) }()
	wg.Wait()
	c2 := time.Since(t0)
	b.tr.end(id)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	records := 2 * n
	sort.Float64s(durs)
	b.set("wal.append_us_p50", quantileSorted(durs, 0.50), "us", n)
	b.set("wal.append_us_p99", quantileSorted(durs, 0.99), "us", n)
	b.set("wal.append_records_per_s_c1", float64(n)/c1.Seconds(), "1/s", n)
	b.set("wal.append_records_per_s_c2", float64(n)/c2.Seconds(), "1/s", n)
	if fi, err := os.Stat(path); err == nil {
		b.set("wal.bytes_per_record", float64(fi.Size())/float64(records), "B", records)
	}
	if err := log.Close(); err != nil {
		return err
	}
	// Recovery reads: open (scan + index) and fetch every record.
	id = b.tr.begin("wal.OpenFileLog+Inputs", parent)
	t0 = time.Now()
	log, err = wal.OpenFileLog(path)
	open := time.Since(t0)
	got := 0
	if err == nil {
		for _, s := range []string{"in0", "in1"} {
			recs, ierr := log.Inputs(s, 0)
			if ierr != nil {
				err = ierr
				break
			}
			got += len(recs)
		}
	}
	replay := time.Since(t0)
	b.tr.end(id)
	if err != nil {
		return err
	}
	if got != records {
		return fmt.Errorf("reopened log holds %d records, appended %d", got, records)
	}
	b.set("wal.open_ms_per_10k", float64(open)/1e6*10000/float64(records), "ms", records)
	b.set("wal.replay_records_per_s", float64(records)/replay.Seconds(), "1/s", records)
	if err := log.TrimInputs("in0", uint64(n)); err != nil {
		return err
	}
	id = b.tr.begin("wal.Compact", parent)
	t0 = time.Now()
	err = log.Compact()
	b.set("wal.compact_ms", float64(time.Since(t0))/1e6, "ms", 1)
	b.tr.end(id)
	return err
}

type nopRouter struct{}

func (nopRouter) Route(msg.Envelope) {}

// schedLane measures one scheduler alone: New + Deliver on a W-way fan-in
// fed round-robin in VT order, the lane BENCH_merge.json's MergeWide
// numbers come from (~1 us per delivery there).
func (b *bench) schedLane(parent int) error {
	for _, width := range []int{2, 16} {
		ns, err := b.schedDeliver(width, parent)
		if err != nil {
			return err
		}
		b.set(fmt.Sprintf("sched.deliver_ns_w%d", width), ns, "ns", b.laneN(schedLaneMsgs))
	}
	return nil
}

const schedLaneMsgs = 200000

func (b *bench) schedDeliver(width, parent int) (float64, error) {
	tb := topo.NewBuilder()
	for i := 0; i < width; i++ {
		tb.AddComponent(fmt.Sprintf("sender%d", i))
	}
	tb.AddComponent("merger")
	for i := 0; i < width; i++ {
		name := fmt.Sprintf("sender%d", i)
		tb.AddSource(fmt.Sprintf("in%d", i), name, "in")
		tb.Connect(name, "out", "merger", fmt.Sprintf("s%d", i))
	}
	tb.AddSink("out", "merger", "out")
	tb.PlaceAll("lane")
	tp, err := tb.Build()
	if err != nil {
		return 0, err
	}
	comp, _ := tp.ComponentByName("merger")
	msgs := b.laneN(schedLaneMsgs)
	done := make(chan struct{})
	seen := 0
	s, err := sched.New(sched.Config{
		Comp: comp, Topo: tp,
		Handler: sched.HandlerFunc(func(*sched.Ctx, string, any) (any, error) {
			if seen++; seen == msgs {
				close(done)
			}
			return nil, nil
		}),
		Est:     estimator.Constant{C: 50},
		Silence: silence.Config{Strategy: silence.Lazy},
		Router:  nopRouter{},
		Metrics: &trace.Metrics{},
		Seed:    b.seed,
	})
	if err != nil {
		return 0, err
	}
	if err := s.Run(); err != nil {
		return 0, err
	}
	defer s.Stop()
	id := b.tr.begin(fmt.Sprintf("sched.Deliver w%d", width), parent)
	defer b.tr.end(id)
	payload := any(b.laneReq(0))
	seqs := make([]uint64, width)
	t0 := time.Now()
	for i := 0; i < msgs; i++ {
		w := i % width
		seqs[w]++
		s.Deliver(msg.NewData(comp.Inputs[w], seqs[w], vt.Time(i+1), payload))
	}
	for _, wid := range comp.Inputs {
		s.Deliver(msg.NewSilence(wid, vt.Max))
	}
	select {
	case <-done:
	case <-time.After(drainTimeout):
		return 0, fmt.Errorf("scheduler did not deliver %d messages within %v", msgs, drainTimeout)
	}
	return float64(time.Since(t0)) / float64(msgs), nil
}

// silenceLane times the governor of a component with four output wires
// (the gate): a probe that leaves a standing curiosity on one wire, then
// the clock advance that answers it.
func (b *bench) silenceLane(parent int) error {
	n := b.laneN(500000)
	g := silence.NewGovernor(silence.Config{})
	views := make(map[msg.WireID]silence.View, numShards)
	id := b.tr.begin("silence.OnProbe+OnAdvance", parent)
	t0 := time.Now()
	promises := 0
	for i := 0; i < n; i++ {
		clock := vt.Time(i) * 1000
		for w := msg.WireID(0); w < numShards; w++ {
			views[w] = silence.View{Clock: clock, MinCost: 50_000, WireDelay: 200_000, LastSentVT: vt.Never}
		}
		g.OnProbe(msg.WireID(i%numShards), clock+1_000_000, views[msg.WireID(i%numShards)])
		for w := range views {
			v := views[w]
			v.Clock += 1_000_000
			views[w] = v
		}
		promises += len(g.OnAdvance(views))
	}
	b.tr.end(id)
	if promises != n {
		return fmt.Errorf("governor answered %d of %d standing curiosities", promises, n)
	}
	b.set("silence.onadvance_ns", float64(time.Since(t0))/float64(n), "ns", n)
	return nil
}

func (b *bench) estimatorLane(parent int) error {
	n := b.laneN(2000000)
	// What the pipeline's components use: the default 50 us constant.
	var est estimator.Estimator = estimator.Constant{C: vt.FromDuration(50 * time.Microsecond)}
	payload := any(b.laneReq(0))
	id := b.tr.begin("estimator.Cost", parent)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		b.laneSink += int64(est.Cost(payload, vt.Time(i)))
	}
	b.set("estimator.cost_ns", float64(time.Since(t0))/float64(n), "ns", n)
	b.tr.end(id)
	// What a calibrated component adds per delivery.
	m := b.laneN(200000)
	lin := estimator.NewLinear(func(any) estimator.Features { return estimator.Features{1} }, []float64{50_000}, 1000)
	cal := estimator.NewCalibrated(lin, estimator.Config{})
	id = b.tr.begin("estimator.Observe", parent)
	t0 = time.Now()
	for i := 0; i < m; i++ {
		if f := cal.Observe(estimator.Features{1}, vt.Ticks(50_000+i%7)); f != nil {
			b.laneSink++
		}
	}
	b.set("estimator.observe_ns", float64(time.Since(t0))/float64(m), "ns", m)
	b.tr.end(id)
	return nil
}

func (b *bench) msgLane(parent int) error {
	n := b.laneN(200000)
	buf := msg.GetBuffer()
	defer msg.PutBuffer(buf)
	env := msg.NewData(3, 1, 1000, b.laneReq(1))
	env.Origin = msg.NewOrigin(0, 1)
	id := b.tr.begin("msg.AppendFrame", parent)
	var frame []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		env.Seq = uint64(i + 1)
		out, fallback, err := msg.AppendFrame((*buf)[:0], env)
		if err != nil || fallback {
			b.tr.end(id)
			return fmt.Errorf("AppendFrame: fallback=%v err=%v", fallback, err)
		}
		frame = out
	}
	b.set("msg.encode_ns", float64(time.Since(t0))/float64(n), "ns", n)
	b.tr.end(id)
	b.set("msg.frame_bytes", float64(len(frame)), "B", 1)
	id = b.tr.begin("msg.DecodeFrame", parent)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		out, _, fallback, err := msg.DecodeFrame(frame)
		if err != nil || fallback {
			b.tr.end(id)
			return fmt.Errorf("DecodeFrame: fallback=%v err=%v", fallback, err)
		}
		b.laneSink += int64(out.Seq)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	b.tr.end(id)
	b.set("msg.decode_ns", float64(el)/float64(n), "ns", n)
	// Encoding into a pooled buffer does not allocate; what a frame costs
	// the allocator is what its decode does.
	b.set("msg.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count", n)
	return nil
}

// transportLane measures an isolated connection pair of the workload's
// transport with the workload's payload: round trips, then a one-way
// pipelined stream.
func (b *bench) transportLane(parent int) error {
	var tr transport.Transport = transport.NewInproc()
	addr := "inproc:lane"
	if b.w.tcp {
		tr, addr = transport.TCP{}, "127.0.0.1:0"
	}
	l, err := tr.Listen(addr)
	if err != nil {
		return err
	}
	defer l.Close()
	type accepted struct {
		c   transport.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		acc <- accepted{c, err}
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	a := <-acc
	if a.err != nil {
		return a.err
	}
	server := a.c
	defer server.Close()

	pings, stream := b.laneN(2000), b.laneN(200000)
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < pings; i++ {
			env, err := server.Recv()
			if err == nil {
				err = server.Send(env)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		for i := 0; i < stream; i++ {
			if _, err := server.Recv(); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	id := b.tr.begin("transport.Send+Recv rtt", parent)
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := nowNs()
		if err := client.Send(msg.NewData(1, uint64(i+1), vt.Time(i+1), b.laneReq(i))); err != nil {
			return err
		}
		if _, err := client.Recv(); err != nil {
			return err
		}
		rtts = append(rtts, float64(nowNs()-t0)/1e3)
	}
	b.tr.end(id)
	b.set("transport.rtt_us_p50", median(rtts), "us", pings)
	id = b.tr.begin("transport.Send stream", parent)
	t0 := time.Now()
	for i := 0; i < stream; i++ {
		if err := client.Send(msg.NewData(1, uint64(pings+i+1), vt.Time(pings+i+1), b.laneReq(i))); err != nil {
			return err
		}
	}
	if err := <-echoErr; err != nil {
		return err
	}
	b.tr.end(id)
	b.set("transport.env_per_s", float64(stream)/time.Since(t0).Seconds(), "1/s", stream)
	return nil
}

// checkpointLane prices the checkpoint path on a fresh copy of the
// workload's state: capture, delta capture, encode, both stores, restore.
func (b *bench) checkpointLane(parent int) error {
	const reps = 3
	states := make([]*tart.StateMap[uint64, Rec], numShards)
	for i := range states {
		states[i] = newShardState(b.seed, i, b.w.keys)
	}
	name := func(i int) string { return fmt.Sprintf("shard%d", i) }
	var captureMs []float64
	var handler [numShards][]byte
	full := 0
	for r := 0; r < reps; r++ {
		id := b.tr.begin("checkpoint.Capture", parent)
		t0 := time.Now()
		full = 0
		for i, m := range states {
			data, err := checkpoint.Capture(m)
			if err != nil {
				return err
			}
			handler[i] = data
			full += len(data)
		}
		captureMs = append(captureMs, float64(time.Since(t0))/1e6)
		b.tr.end(id)
	}
	b.set("checkpoint.bytes_full", float64(full), "B", 1)
	b.set("checkpoint.capture_ms", median(captureMs), "ms", reps)

	// Touch 1 % of the keys, then capture only the change.
	touched := b.w.keys / 100
	for k := 0; k < touched; k++ {
		key := uint64(k * 100)
		m := states[key%numShards]
		rec, _ := m.Get(key)
		rec.Count++
		m.Put(key, rec)
	}
	id := b.tr.begin("checkpoint.CaptureDelta", parent)
	t0 := time.Now()
	delta := 0
	for _, m := range states {
		data, isFull, err := checkpoint.CaptureDelta(m)
		if err != nil {
			return err
		}
		if isFull {
			return fmt.Errorf("CaptureDelta returned a full capture")
		}
		delta += len(data)
	}
	b.set("checkpoint.delta_capture_ms", float64(time.Since(t0))/1e6, "ms", 1)
	b.tr.end(id)
	b.set("checkpoint.delta_bytes_ratio", float64(delta)/float64(full), "ratio", 1)

	newCheckpoint := func(seq uint64) *checkpoint.Checkpoint {
		ck := &checkpoint.Checkpoint{Engine: engShards, Seq: seq, VT: vt.Time(seq),
			Components: make(map[string]checkpoint.ComponentState, numShards)}
		for i := range states {
			ck.Components[name(i)] = checkpoint.ComponentState{Kind: checkpoint.HandlerFull, Handler: handler[i]}
		}
		return ck
	}
	var encodeNs []float64
	for r := 0; r < reps; r++ {
		id := b.tr.begin("checkpoint.Encode", parent)
		t0 := time.Now()
		enc, err := newCheckpoint(1).Encode()
		el := time.Since(t0)
		b.tr.end(id)
		if err != nil {
			return err
		}
		encodeNs = append(encodeNs, float64(el)/float64(len(enc)))
	}
	b.set("checkpoint.encode_ns_per_byte", median(encodeNs), "ns", reps)

	replica := checkpoint.NewReplicaStore()
	id = b.tr.begin("checkpoint.ReplicaStore.Apply", parent)
	t0 = time.Now()
	err := replica.Apply(newCheckpoint(1))
	b.set("checkpoint.replica_apply_ms", float64(time.Since(t0))/1e6, "ms", 1)
	b.tr.end(id)
	if err != nil {
		return err
	}

	store, err := checkpoint.OpenFileStore(filepath.Join(b.stateDir, "lanes", "checkpoints"))
	if err != nil {
		return err
	}
	defer store.Close()
	fsyncs := 0
	store.SetObserver(nil, func() { fsyncs++ })
	var applyMs []float64
	for r := 0; r < reps; r++ {
		id := b.tr.begin("checkpoint.FileStore.Apply", parent)
		t0 := time.Now()
		err := store.Apply(newCheckpoint(uint64(r + 1)))
		applyMs = append(applyMs, float64(time.Since(t0))/1e6)
		b.tr.end(id)
		if err != nil {
			return err
		}
	}
	b.set("checkpoint.store_apply_ms", median(applyMs), "ms", reps)
	b.set("checkpoint.store_fsyncs_per_ckpt", float64(fsyncs)/reps, "count", reps)
	id = b.tr.begin("checkpoint.FileStore.Latest", parent)
	t0 = time.Now()
	latest, err := store.Latest()
	b.set("checkpoint.store_latest_ms", float64(time.Since(t0))/1e6, "ms", 1)
	b.tr.end(id)
	if err != nil {
		return err
	}
	if latest.Seq != reps {
		return fmt.Errorf("FileStore.Latest returned checkpoint %d, want %d", latest.Seq, reps)
	}

	var restoreMs []float64
	for r := 0; r < reps; r++ {
		id := b.tr.begin("checkpoint.RestoreInto", parent)
		t0 := time.Now()
		for i := range states {
			fresh := tart.NewStateMap[uint64, Rec]()
			if _, _, err := replica.RestoreInto(name(i), fresh); err != nil {
				return err
			}
			if fresh.Len() != states[i].Len() {
				return fmt.Errorf("restored %d keys of %d", fresh.Len(), states[i].Len())
			}
		}
		restoreMs = append(restoreMs, float64(time.Since(t0))/1e6)
		b.tr.end(id)
	}
	b.set("checkpoint.restore_ms", median(restoreMs), "ms", reps)
	return nil
}

// supervisorLane crashes e1 three times without telling the control plane
// and reads back how long the failure detector took to notice and how long
// the supervisor's recovery took: the part of a real outage that
// recover_ms, which starts at an announced Fail, does not contain.
func (b *bench) supervisorLane(parent int) error {
	const crashes = 3
	dir := filepath.Join(b.stateDir, "lanes", "supervised")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	copts, err := b.w.clusterOptions(dir)
	if err != nil {
		return err
	}
	copts = append(copts, tart.WithSupervisor(tart.SupervisorConfig{SuspectAfter: 100 * time.Millisecond}))
	id := b.tr.begin("tart.Launch (supervised)", parent)
	cluster, err := tart.Launch(buildApp(b.seed, b.w.keys), copts...)
	b.tr.end(id)
	if err != nil {
		return err
	}
	defer cluster.Stop()
	if err := waitLinked(cluster); err != nil {
		return err
	}
	var detect, ttr []float64
	for k := 0; k < crashes; k++ {
		time.Sleep(300 * time.Millisecond) // past the supervisor's cooldown, heartbeats flowing
		id := b.tr.begin("tart.Crash", parent)
		crashed := time.Now()
		err := cluster.Crash(engShards)
		b.tr.end(id)
		if err != nil {
			return err
		}
		id = b.tr.begin("supervisor failover", parent)
		deadline := time.Now().Add(drainTimeout)
		var rec tart.FailoverRecord
		for {
			// Only e1's failovers count: with a 100 ms suspicion window a
			// long checkpoint can get another engine falsely suspected.
			var mine []tart.FailoverRecord
			for _, f := range cluster.SupervisorStatus().Failovers {
				if f.Engine == engShards {
					mine = append(mine, f)
				}
			}
			if len(mine) > k {
				rec = mine[k]
				break
			}
			if time.Now().After(deadline) {
				b.tr.end(id)
				return fmt.Errorf("crash %d not recovered by the supervisor within %v", k, drainTimeout)
			}
			time.Sleep(time.Millisecond)
		}
		b.tr.end(id)
		if rec.Err != "" {
			return fmt.Errorf("supervised recovery %d: %s", k, rec.Err)
		}
		detect = append(detect, float64(rec.SuspectedAt.Sub(crashed))/1e6)
		ttr = append(ttr, float64(rec.TimeToRecover)/1e6)
		if err := waitLinked(cluster); err != nil {
			return err
		}
	}
	b.set("supervisor.detect_ms", median(detect), "ms", crashes)
	b.set("supervisor.ttr_ms", median(ttr), "ms", crashes)
	return nil
}

func (b *bench) sloLane(parent int) error {
	n := b.laneN(2000000)
	h := slo.NewHist()
	id := b.tr.begin("slo.Hist.Observe", parent)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(1000 + i%100000))
	}
	b.set("slo.observe_ns", float64(time.Since(t0))/float64(n), "ns", n)
	b.tr.end(id)
	b.laneSink += int64(h.Count())
	return nil
}

// writeTraceFiles writes the Chrome trace (harness spans + the system's
// sampled spans) and the per-layer table with each harness span's self
// time.
func (b *bench) writeTraceFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, b.w.name+"-trace.json"))
	if err != nil {
		return err
	}
	err = b.tr.writeChrome(f, b.sysSpans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(map[string]any{
		"workload":     b.w.name,
		"seed":         b.seed,
		"metrics":      b.m,
		"self_time_ms": b.tr.selfTimes(),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, b.w.name+"-layers.json"), append(raw, '\n'), 0o644)
}
