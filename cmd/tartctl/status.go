package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	tart "repro"
	"repro/internal/trace"
)

// status renders the live state of one engine from its debug HTTP surface
// (Config.DebugAddr / tart.WithDebugHTTP): health and peer connectivity
// from /healthz, then the per-wire and per-peer tables reconstructed from
// the Prometheus text of /metrics. With last > 0 it also prints the tail
// of the flight recorder from /trace.
func status(addr string, last int) error {
	if addr == "" {
		return fmt.Errorf("status: -addr is required (engine debug HTTP address)")
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}

	health, healthy, err := fetchHealth(client, base)
	if err != nil {
		return err
	}
	samples, err := fetchMetrics(client, base)
	if err != nil {
		return err
	}

	state := "healthy"
	if !healthy {
		state = "DEGRADED"
	}
	fmt.Printf("engine %s at %s: %s\n", health.Engine, addr, state)
	fmt.Printf("  components: %s\n", strings.Join(health.Components, ", "))
	if len(health.Peers) > 0 {
		peers := make([]string, 0, len(health.Peers))
		for p := range health.Peers {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		fmt.Println("  peers:")
		for _, p := range peers {
			ps := health.Peers[p]
			conn := "connected"
			if !ps.Connected {
				conn = "DISCONNECTED"
			}
			sent := sumSamples(samples, trace.MetricPeerFrames, "peer", p, "direction", "send")
			recv := sumSamples(samples, trace.MetricPeerFrames, "peer", p, "direction", "recv")
			fmt.Printf("    %-10s %-12s frames sent %.0f, received %.0f\n", p, conn, sent, recv)
		}
	}

	printStatusWireTable(samples)
	printStatusBlameTable(samples)
	printStatusTotals(samples)
	fmt.Println(walStatusRow(samples))
	fmt.Println(ckptStatusRow(samples))
	if err := printSupervisor(client, base, samples); err != nil {
		return err
	}

	if last > 0 {
		events, err := fetchTrace(client, base, last)
		if err != nil {
			return err
		}
		fmt.Printf("  flight recorder (last %d events):\n", len(events))
		for _, ev := range events {
			fmt.Printf("    %s\n", ev.String())
		}
	}
	return nil
}

type healthReport struct {
	Engine     string   `json:"engine"`
	Healthy    bool     `json:"healthy"`
	Components []string `json:"components"`
	Peers      map[string]struct {
		Connected bool      `json:"connected"`
		LastHeard time.Time `json:"lastHeard"`
	} `json:"peers"`
}

func fetchHealth(client *http.Client, base string) (healthReport, bool, error) {
	var h healthReport
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return h, false, fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, false, fmt.Errorf("status: decode /healthz: %w", err)
	}
	// A 503 still carries the full report; trust the body's healthy flag.
	return h, h.Healthy, nil
}

func fetchTrace(client *http.Client, base string, last int) ([]tart.TraceEvent, error) {
	resp, err := client.Get(fmt.Sprintf("%s/trace?last=%d", base, last))
	if err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	var events []tart.TraceEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		return nil, fmt.Errorf("status: decode /trace: %w", err)
	}
	return events, nil
}

// promSample is one parsed Prometheus text-format line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

func (s promSample) label(key string) string { return s.labels[key] }

func fetchMetrics(client *http.Client, base string) ([]promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	samples, err := parsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("status: parse /metrics: %w", err)
	}
	return samples, nil
}

// parsePrometheus reads Prometheus text exposition format 0.0.4: comment
// lines are skipped, every other line is `name[{k="v",...}] value`. Only
// the subset the registry emits is supported (no timestamps, no exemplars).
func parsePrometheus(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		s.name = rest[:i]
		var err error
		rest, err = parsePromLabels(rest[i+1:], s.labels)
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
	} else if i >= 0 {
		s.name = rest[:i]
		rest = rest[i:]
	} else {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.value = v
	return s, nil
}

// parsePromLabels consumes `k="v",...}` and returns what follows the brace.
func parsePromLabels(rest string, into map[string]string) (string, error) {
	for {
		rest = strings.TrimLeft(rest, ", ")
		if rest == "" {
			return "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			return "", fmt.Errorf("malformed label")
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		for {
			if rest == "" {
				return "", fmt.Errorf("unterminated label value")
			}
			c := rest[0]
			if c == '"' {
				rest = rest[1:]
				break
			}
			if c == '\\' && len(rest) >= 2 {
				switch rest[1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[1])
				}
				rest = rest[2:]
				continue
			}
			val.WriteByte(c)
			rest = rest[1:]
		}
		into[key] = val.String()
	}
}

func sumSamples(samples []promSample, name string, kv ...string) float64 {
	var total float64
next:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.label(kv[i]) != kv[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// printStatusWireTable reconstructs the per-wire table from the parsed
// metric samples: counters directly, mean pessimism from the histogram's
// _sum/_count series.
func printStatusWireTable(samples []promSample) {
	type row struct {
		delivered, probes, duplicates, sent, silences float64
		pessSum, pessCount                            float64
	}
	rows := map[string]*row{}
	row0 := func(wire string) *row {
		r := rows[wire]
		if r == nil {
			r = &row{}
			rows[wire] = r
		}
		return r
	}
	for _, s := range samples {
		wire := s.label("wire")
		if wire == "" {
			continue
		}
		switch s.name {
		case trace.MetricDelivered:
			row0(wire).delivered += s.value
		case trace.MetricProbes:
			row0(wire).probes += s.value
		case trace.MetricDuplicates:
			row0(wire).duplicates += s.value
		case trace.MetricSent:
			row0(wire).sent += s.value
		case trace.MetricSilences:
			row0(wire).silences += s.value
		case trace.MetricPessimism + "_sum":
			row0(wire).pessSum += s.value
		case trace.MetricPessimism + "_count":
			row0(wire).pessCount += s.value
		}
	}
	if len(rows) == 0 {
		return
	}
	wires := make([]string, 0, len(rows))
	for w := range rows {
		wires = append(wires, w)
	}
	sort.Strings(wires)
	fmt.Println("  wires:")
	fmt.Printf("    %-28s %9s %7s %5s %9s %9s %12s\n",
		"wire", "delivered", "probes", "dup", "sent", "silences", "pessimism")
	for _, w := range wires {
		r := rows[w]
		pess := "-"
		if r.pessCount > 0 {
			pess = fmt.Sprintf("%.2fms/ep", 1e3*r.pessSum/r.pessCount)
		}
		fmt.Printf("    %-28s %9.0f %7.0f %5.0f %9.0f %9.0f %12s\n",
			w, r.delivered, r.probes, r.duplicates, r.sent, r.silences, pess)
	}
}

// printStatusBlameTable renders pessimism blame attribution: for each input
// wire, how many pessimism episodes ended with that wire's silence frontier
// as the last holdout, and the total real time the receiver spent blocked on
// it. Wires that never drew blame are omitted.
func printStatusBlameTable(samples []promSample) {
	type row struct {
		episodes, waitSum, waitCount float64
	}
	rows := map[string]*row{}
	row0 := func(wire string) *row {
		r := rows[wire]
		if r == nil {
			r = &row{}
			rows[wire] = r
		}
		return r
	}
	for _, s := range samples {
		wire := s.label("wire")
		if wire == "" {
			continue
		}
		switch s.name {
		case trace.MetricBlame:
			row0(wire).episodes += s.value
		case trace.MetricBlameSeconds + "_sum":
			row0(wire).waitSum += s.value
		case trace.MetricBlameSeconds + "_count":
			row0(wire).waitCount += s.value
		}
	}
	var total float64
	for _, r := range rows {
		total += r.episodes
	}
	if total == 0 {
		return
	}
	wires := make([]string, 0, len(rows))
	for w, r := range rows {
		if r.episodes > 0 {
			wires = append(wires, w)
		}
	}
	// Most-blamed first; ties resolve alphabetically for stable output.
	sort.Slice(wires, func(i, j int) bool {
		ri, rj := rows[wires[i]], rows[wires[j]]
		if ri.episodes != rj.episodes {
			return ri.episodes > rj.episodes
		}
		return wires[i] < wires[j]
	})
	fmt.Println("  pessimism blame (last holdout per episode):")
	fmt.Printf("    %-28s %9s %7s %12s %12s\n",
		"blamed wire", "episodes", "share", "blocked", "per-episode")
	for _, w := range wires {
		r := rows[w]
		per := "-"
		if r.waitCount > 0 {
			per = fmt.Sprintf("%.2fms", 1e3*r.waitSum/r.waitCount)
		}
		fmt.Printf("    %-28s %9.0f %6.1f%% %11.1fms %12s\n",
			w, r.episodes, 100*r.episodes/total, 1e3*r.waitSum, per)
	}
}

// printSupervisor renders the cluster failover supervisor's view from the
// /supervisor endpoint. Clusters running without one return 404, which is
// not an error — the section is simply omitted.
func printSupervisor(client *http.Client, base string, samples []promSample) error {
	resp, err := client.Get(base + "/supervisor")
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	var st tart.SupervisorStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("status: decode /supervisor: %w", err)
	}
	fenced := sumSamples(samples, trace.MetricFencedHellos)
	fmt.Printf("  supervisor: suspect after %s, %d suspicions, %d failovers, %.0f fenced hellos\n",
		st.SuspectAfter, st.Suspicions, len(st.Failovers), fenced)
	show := st.Failovers
	if len(show) > 5 {
		show = show[len(show)-5:]
	}
	for _, f := range show {
		outcome := fmt.Sprintf("recovered as generation %d in %s", f.Generation, f.TimeToRecover.Round(10*time.Microsecond))
		if f.Err != "" {
			outcome = "FAILED: " + f.Err
		}
		fmt.Printf("    %s %-10s cause=%-12s %s\n",
			f.SuspectedAt.Format("15:04:05.000"), f.Engine, f.Cause, outcome)
	}
	return nil
}

// walStatusRow summarizes the durable log: what it made durable, how many
// fsyncs that took (group commit shows as fewer than one per record) and
// what one fsync costs.
func walStatusRow(samples []promSample) string {
	fsyncs := sumSamples(samples, trace.MetricWALFsyncs)
	if fsyncs == 0 {
		return "  wal: no file-log commits (in-memory log, or nothing logged yet)"
	}
	records := sumSamples(samples, trace.MetricWALRecords)
	meanSync := sumSamples(samples, trace.MetricWALFsyncSeconds+"_sum") / fsyncs
	return fmt.Sprintf("  wal: %.0f records durable (%.0f inputs, %.0f faults, %.0f trims) in %.0f fsyncs: %.2f fsyncs/record, mean fsync %s",
		records,
		sumSamples(samples, trace.MetricWALRecords, "kind", "input"),
		sumSamples(samples, trace.MetricWALRecords, "kind", "fault"),
		sumSamples(samples, trace.MetricWALRecords, "kind", "trim"),
		fsyncs, fsyncs/records, time.Duration(meanSync*float64(time.Second)).Round(time.Microsecond))
}

// ckptStatusRow summarizes what soft checkpoints cost: how many shipped
// full state and how many only deltas, and their mean size; how long a
// component's delivery loop was held for one (median and worst, as the
// bounds of the histogram buckets they fell in); the encode + store time
// and durable-store fsyncs spent behind the loop's back; and how many
// checkpoints a restore would fold right now (the longest chain among the
// engines scraped).
func ckptStatusRow(samples []promSample) string {
	full := sumSamples(samples, trace.MetricCheckpoints, "kind", "full")
	delta := sumSamples(samples, trace.MetricCheckpoints, "kind", "delta")
	if full+delta == 0 {
		return "  ckpt: no checkpoints taken"
	}
	mean := func(kind string, n float64) string {
		if n == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f B", sumSamples(samples, trace.MetricCheckpointBytes+"_sum", "kind", kind)/n)
	}
	dur := func(seconds float64) time.Duration {
		return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond)
	}
	store := sumSamples(samples, trace.MetricCheckpointStore+"_sum") / (full + delta)
	var chain float64
	for _, s := range samples {
		if s.name == trace.MetricCheckpointChain {
			chain = max(chain, s.value)
		}
	}
	return fmt.Sprintf("  ckpt: %.0f full (mean %s), %.0f delta (mean %s); loop held p50 <=%s, max <=%s; off-loop encode+store mean %s, %.0f store fsyncs; chain %.0f",
		full, mean("full", full), delta, mean("delta", delta),
		dur(bucketBound(samples, trace.MetricCheckpointHold, 0.5)), dur(bucketBound(samples, trace.MetricCheckpointHold, 1)),
		dur(store), sumSamples(samples, trace.MetricCkptStoreFsyncs), chain)
}

// bucketBound returns the upper bound of the histogram bucket the q-th
// quantile of a family's observations falls in (all series pooled); +Inf
// when it lies beyond the last finite bucket, 0 without observations.
func bucketBound(samples []promSample, family string, q float64) float64 {
	cum := make(map[float64]float64) // le -> cumulative count, summed over series
	for _, s := range samples {
		if s.name != family+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.label("le"), 64)
		if err != nil {
			continue
		}
		cum[le] += s.value
	}
	total := cum[math.Inf(1)]
	if total == 0 {
		return 0
	}
	bound := math.Inf(1)
	for le, n := range cum {
		if n >= q*total && le < bound {
			bound = le
		}
	}
	return bound
}

// printStatusTotals summarizes the engine-wide recovery counters.
func printStatusTotals(samples []promSample) {
	ckpts := sumSamples(samples, trace.MetricCheckpoints)
	ckptBytes := sumSamples(samples, trace.MetricCheckpointBytes+"_sum")
	failovers := sumSamples(samples, trace.MetricFailovers)
	replays := sumSamples(samples, trace.MetricReplayRequests)
	serves := sumSamples(samples, trace.MetricReplayServes)
	faults := sumSamples(samples, trace.MetricDetFaults)
	fmt.Printf("  recovery: %.0f checkpoints (%.0f bytes), %.0f failovers, %.0f replay requests, %.0f replay serves, %.0f determinism faults\n",
		ckpts, ckptBytes, failovers, replays, serves, faults)
}
