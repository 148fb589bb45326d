package tart_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	tart "repro"
)

// auditEcho forwards every input; a named struct so checkpoints can
// gob-capture it (the supervisor checkpoints every engine at launch).
type auditEcho struct{ N int }

func (e *auditEcho) OnMessage(ctx *tart.Context, _ string, p any) (any, error) {
	e.N++
	return nil, ctx.Send("out", p)
}

// TestMetricsExpositionAudit drives a cluster with every metrics-producing
// subsystem enabled (supervisor, span tracing, a calibrated estimator) and audits the full /metrics exposition:
// the Prometheus text Content-Type, a # TYPE plus non-empty # HELP comment
// for every family emitted — including the cluster-level families appended
// after the engine's own — and the README type and label keys of each.
func TestMetricsExpositionAudit(t *testing.T) {
	app := tart.NewApp()
	// A calibrated linear estimator plus an inter-component wire give both
	// per-entity gauge families (estimator residual per component, silence
	// strategy per wire) something to seed.
	app.Register("echo", &auditEcho{},
		tart.WithLinearCost(func(any) tart.Features { return tart.Features{1} },
			[]float64{5_000}, time.Microsecond),
		tart.WithCalibration(4))
	app.Register("tally", &auditEcho{}, tart.WithConstantCost(5*time.Microsecond))
	app.SourceInto("in", "echo", "in")
	app.Connect("echo", "out", "tally", "in")
	app.SinkFrom("out", "tally", "out")
	app.PlaceAll("main")

	cluster, err := tart.Launch(app,
		tart.WithDebugHTTP(map[string]string{"main": "127.0.0.1:0"}),
		tart.WithFlightRecorder(""),
		tart.WithSupervisor(tart.SupervisorConfig{SuspectAfter: time.Hour}),
		tart.WithSpanTracing(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	count := 0
	if err := cluster.Sink("out", func(tart.Output) {
		count++
		if count == 20 {
			close(done)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := src.Emit(i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("outputs did not arrive")
	}

	addr, err := cluster.DebugAddr("main")
	if err != nil || addr == "" {
		t.Fatalf("debug addr: %q err=%v", addr, err)
	}
	audited := scrapeAudited(t, addr)

	// Every family of the README census must actually be present, not just
	// correct-if-present — except the ones whose series only appear once
	// the event or the label value behind them exists, which this run never
	// has.
	absent := map[string]string{
		"tart_peer_frames_total":           "no peer",
		"tart_fenced_hellos_total":         "no peer",
		"tart_redial_attempts_total":       "no peer to dial",
		"tart_dial_breaker_state":          "no peer to dial",
		"tart_replay_requests_total":       "no peer, no recovery",
		"tart_replay_serves_total":         "no peer, no recovery",
		"tart_supervisor_suspicions_total": "no suspicion",
		"tart_supervisor_failovers_total":  "no failover",
		"tart_time_to_recover_seconds":     "no failover",
		"tart_chaos_events_total":          "no chaos controller",
	}
	for family := range censusFamilies(t) {
		if _, exempt := absent[family]; !exempt && !audited[family] {
			t.Errorf("family %s missing from /metrics exposition", family)
		}
	}
	for family, reason := range absent {
		if audited[family] {
			t.Errorf("family %s is exempt (%s) but present: drop the exemption", family, reason)
		}
	}
}

// TestMetricsExpositionAuditTCP audits both engines of a two-engine TCP
// cluster after traffic has crossed the link: the peer, transport and
// dial-breaker families a single engine never shows must be present, with
// the README's type and label keys.
func TestMetricsExpositionAuditTCP(t *testing.T) {
	app := tart.NewApp()
	app.Register("echo", &auditEcho{}, tart.WithConstantCost(5*time.Microsecond))
	app.Register("tally", &auditEcho{}, tart.WithConstantCost(5*time.Microsecond))
	app.SourceInto("in", "echo", "in")
	app.Connect("echo", "out", "tally", "in")
	app.SinkFrom("out", "tally", "out")
	app.Place("echo", "A")
	app.Place("tally", "B")
	cluster, err := tart.Launch(app,
		tart.WithTCP(map[string]string{"A": freeLoopbackAddr(t), "B": freeLoopbackAddr(t)}),
		tart.WithDebugHTTP(map[string]string{"A": "127.0.0.1:0", "B": "127.0.0.1:0"}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	emitAndAwait(t, cluster, 20)

	seen := make(map[string]bool)
	for _, engine := range []string{"A", "B"} {
		addr, err := cluster.DebugAddr(engine)
		if err != nil {
			t.Fatal(err)
		}
		for family := range scrapeAudited(t, addr) {
			seen[family] = true
		}
	}
	for _, family := range []string{
		"tart_peer_frames_total", "tart_redial_attempts_total", "tart_dial_breaker_state",
		"tart_transport_bytes_total", "tart_transport_frames_per_writev", "tart_codec_fallbacks_total",
	} {
		if !seen[family] {
			t.Errorf("family %s missing from the two-engine exposition", family)
		}
	}
}

// freeLoopbackAddr returns a loopback address nothing listens on.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// emitAndAwait emits n inputs on source "in" and waits for n outputs on
// sink "out".
func emitAndAwait(t *testing.T, cluster *tart.Cluster, n int) {
	t.Helper()
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, n)
	if err := cluster.Sink("out", func(tart.Output) { got <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := src.Emit(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d outputs arrived", i, n)
		}
	}
}

// scrapeAudited fetches one debug listener's /metrics, checks its
// Content-Type and audits it (auditExposition), and holds every family's
// TYPE and label keys to its README row. It returns the families seen.
func scrapeAudited(t *testing.T, addr string) map[string]bool {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	audited, err := auditExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rows := censusRows(t)
	seen := make(map[string]bool, len(audited))
	for family, got := range audited {
		seen[family] = true
		row, ok := rows[family]
		if !ok {
			t.Errorf("family %s is scraped but has no README row", family)
			continue
		}
		if got.typ != row.typ {
			t.Errorf("family %s has TYPE %s, README says %s", family, got.typ, row.typ)
		}
		for keys := range got.labelKeys {
			if keys != row.labelKeys {
				t.Errorf("family %s has a series with labels {%s}, README says {%s}", family, keys, row.labelKeys)
			}
		}
	}
	return seen
}

// auditedFamily is what auditExposition saw of one family: its TYPE and the
// label-key sets of its series, each sorted and comma-joined, without the
// engine label and a histogram bucket's le.
type auditedFamily struct {
	typ       string
	labelKeys map[string]bool
}

// auditExposition parses Prometheus text and fails on any sample whose
// family lacks a preceding # TYPE with a valid type, or whose # HELP is
// missing or empty. Returns the families seen.
func auditExposition(r io.Reader) (map[string]*auditedFamily, error) {
	validType := map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
	typed := make(map[string]string)
	helped := make(map[string]string)
	seen := make(map[string]*auditedFamily)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("malformed TYPE line: %q", line)
			}
			if !validType[parts[3]] {
				return nil, fmt.Errorf("family %s has invalid type %q", parts[2], parts[3])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || strings.TrimSpace(parts[3]) == "" {
				return nil, fmt.Errorf("empty HELP: %q", line)
			}
			helped[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suffix); f != name && typed[f] == "histogram" {
				fam = f
				break
			}
		}
		if _, ok := typed[fam]; !ok {
			return nil, fmt.Errorf("sample %s has no preceding # TYPE (family %s)", name, fam)
		}
		if _, ok := helped[fam]; !ok {
			return nil, fmt.Errorf("family %s has no # HELP", fam)
		}
		keys, err := sampleLabelKeys(line)
		if err != nil {
			return nil, err
		}
		if seen[fam] == nil {
			seen[fam] = &auditedFamily{typ: typed[fam], labelKeys: make(map[string]bool)}
		}
		seen[fam].labelKeys[keys] = true
	}
	return seen, sc.Err()
}

// sampleLabelKeys returns a sample line's label keys, sorted and
// comma-joined, leaving out engine and le.
func sampleLabelKeys(line string) (string, error) {
	open := strings.IndexByte(line, '{')
	if open < 0 || open > strings.IndexByte(line, ' ') {
		return "", nil
	}
	var keys []string
	rest := line[open+1:]
	for !strings.HasPrefix(rest, "}") {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			return "", fmt.Errorf("malformed labels in %q", line)
		}
		if key := rest[:eq]; key != "engine" && key != "le" {
			keys = append(keys, key)
		}
		rest = rest[eq+2:]
		for i := 0; ; i++ { // the value ends at the first unescaped quote
			if i >= len(rest) {
				return "", fmt.Errorf("unterminated label value in %q", line)
			}
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				rest = strings.TrimPrefix(rest[i+1:], ",")
				break
			}
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ","), nil
}

// TestMetricFamilyCensus holds the README's *Metric families* table and the
// Metric* constants of internal/trace/registry.go to the same list: every
// constant has a row, every row a constant, and every row names a reader.
func TestMetricFamilyCensus(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "internal/trace/registry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]string) // family -> constant
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !strings.HasPrefix(name.Name, "Metric") || !ok || lit.Kind != token.STRING {
					continue
				}
				family, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				declared[family] = name.Name
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no Metric* constants found in registry.go")
	}

	rows := censusRows(t)
	for family, row := range rows {
		if _, ok := declared[family]; !ok {
			t.Errorf("README row %s has no Metric* constant in registry.go", family)
		}
		if row.reader == "" || row.reader == "—" {
			t.Errorf("README row %s names no reader", family)
		}
		if row.produced != "push" && row.produced != "pull" {
			t.Errorf("README row %s is produced by %q, want push or pull", family, row.produced)
		}
		if row.typ == "gauge" && row.produced != "pull" {
			t.Errorf("README row %s is a pushed gauge: a gauge reads a value the runtime holds, at gather time", family)
		}
	}
	for family, name := range declared {
		if _, ok := rows[family]; !ok {
			t.Errorf("%s (%s) has no row in the README Metric families table", name, family)
		}
	}
}

// censusRow is one row of the README's *Metric families* table. labelKeys
// is sorted and comma-joined, without the engine label.
type censusRow struct {
	typ, labelKeys, produced, reader string
}

// censusRows reads the README's *Metric families* table by family name.
func censusRows(t *testing.T) map[string]censusRow {
	t.Helper()
	rows := make(map[string]censusRow)
	for _, cells := range readmeTable(t, "### Metric families") {
		if len(cells) != 5 || !strings.HasPrefix(cells[0], "`tart_") {
			continue
		}
		var keys []string
		for _, k := range strings.Split(cells[2], ",") {
			if k = strings.TrimSpace(k); k != "—" && k != "engine" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		rows[strings.Trim(cells[0], "`")] = censusRow{typ: cells[1], labelKeys: strings.Join(keys, ","), produced: cells[3], reader: cells[4]}
	}
	return rows
}

// censusFamilies is the set of families the README table lists.
func censusFamilies(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for family := range censusRows(t) {
		out[family] = true
	}
	return out
}

// readmeTable returns the trimmed cells of every table row in the README
// section under heading, up to the next heading.
func readmeTable(t *testing.T, heading string) [][]string {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("README has no %q section", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break // the next section
		}
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}
