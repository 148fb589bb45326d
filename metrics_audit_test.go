package tart_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"os"
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
// subsystem enabled (supervisor, SLO tracker, adaptive span sampling, the
// closed-loop adaptive runtime) and audits the full /metrics exposition:
// the Prometheus text Content-Type, and a # TYPE plus non-empty # HELP
// comment for every family emitted — including the cluster-level families
// appended after the engine's own.
func TestMetricsExpositionAudit(t *testing.T) {
	app := tart.NewApp()
	// A calibrated linear estimator plus an inter-component wire give the
	// adaptive runtime both of its per-entity gauge families (estimator
	// residual per component, silence strategy per wire) something to seed.
	app.Register("echo", &auditEcho{},
		tart.WithLinearCost(func(any) tart.Features { return tart.Features{1} },
			[]float64{5_000}, time.Microsecond),
		tart.WithCalibration(4))
	app.Register("tally", &auditEcho{}, tart.WithConstantCost(5*time.Microsecond))
	app.SourceInto("in", "echo", "in")
	app.Connect("echo", "out", "tally", "in")
	app.SinkFrom("out", "tally", "out")
	app.PlaceAll("main")

	tracker := tart.NewSLOTracker(mustObjectives(t, "p99<1s"), nil)
	cluster, err := tart.Launch(app,
		tart.WithDebugHTTP(map[string]string{"main": "127.0.0.1:0"}),
		tart.WithFlightRecorder(""),
		tart.WithSupervisor(tart.SupervisorConfig{SuspectAfter: time.Hour}),
		tart.WithSLO(tracker),
		tart.WithAdaptiveSpanSampling(tart.AdaptiveSampling{SpansPerSec: 100}),
		tart.WithAdaptiveRuntime(tart.AdaptiveRuntime{PollEvery: time.Hour}),
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
	tracker.Observe("e2e", 3*time.Millisecond)

	addr, err := cluster.DebugAddr("main")
	if err != nil || addr == "" {
		t.Fatalf("debug addr: %q err=%v", addr, err)
	}
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

	// The families this PR added must actually be present in the engine's
	// exposition, not just correct-if-present.
	for _, want := range []string{
		"tart_slo_latency_seconds", "tart_slo_observations_total", "tart_slo_ok",
		"tart_span_sample_n",
		"tart_checkpoint_last_vt", "tart_checkpoint_age_vt",
		"tart_transport_bytes_total", "tart_transport_frames_per_writev",
		"tart_codec_fallbacks_total",
		"tart_adapt_decisions_total", "tart_adapt_recalibrations_total",
		"tart_estimator_residual_seconds", "tart_adapt_silence_strategy",
		"tart_redial_attempts_total", "tart_dial_breaker_state",
		"tart_coldstart_replayed_records",
		"tart_ckpt_store_writes_total", "tart_ckpt_store_fsyncs_total",
		"tart_source_shed_total",
		"tart_wal_records_total", "tart_wal_fsyncs_total",
		"tart_wal_fsync_seconds", "tart_wal_batch_records",
		"tart_checkpoints_total", "tart_checkpoint_bytes",
		"tart_checkpoint_hold_seconds", "tart_checkpoint_store_seconds",
		"tart_checkpoint_chain_length",
	} {
		if !audited[want] {
			t.Errorf("family %s missing from /metrics exposition", want)
		}
	}
}

// auditExposition parses Prometheus text and fails on any sample whose
// family lacks a preceding # TYPE with a valid type, or whose # HELP is
// missing or empty. Returns the set of families seen.
func auditExposition(r io.Reader) (map[string]bool, error) {
	validType := map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
	typed := make(map[string]string)
	helped := make(map[string]string)
	seen := make(map[string]bool)
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
		seen[fam] = true
	}
	return seen, sc.Err()
}

func mustObjectives(t *testing.T, spec string) []tart.SLOObjective {
	t.Helper()
	obj, err := tart.ParseSLOObjectives(spec)
	if err != nil {
		t.Fatal(err)
	}
	return obj
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

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n### Metric families\n")
	if !ok {
		t.Fatal("README has no \"### Metric families\" section")
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "#") {
			break // the next section
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 || !strings.HasPrefix(strings.TrimSpace(cells[0]), "`tart_") {
			continue
		}
		family := strings.Trim(strings.TrimSpace(cells[0]), "`")
		rows[family] = true
		if _, ok := declared[family]; !ok {
			t.Errorf("README row %s has no Metric* constant in registry.go", family)
		}
		if reader := strings.TrimSpace(cells[3]); reader == "" || reader == "—" {
			t.Errorf("README row %s names no reader", family)
		}
	}
	for family, name := range declared {
		if !rows[family] {
			t.Errorf("%s (%s) has no row in the README Metric families table", name, family)
		}
	}
}
