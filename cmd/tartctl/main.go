// Command tartctl is the operability tool: it inspects topologies, dumps
// stable logs, runs a live demo pipeline with metrics, and renders the
// live status of a running engine from its debug HTTP surface.
//
//	tartctl topo                 print the built-in Figure-1 topology
//	tartctl wal -file app.wal    dump a stable log (inputs + faults)
//	tartctl demo -d 3s           run the Figure-1 app live and print metrics
//	tartctl status -addr H:P     health + per-wire tables from a debug listener
//	tartctl trace -file f.json   causal chains from a flight-recorder dump
//	tartctl trace -addr H:P -origin w0#3   one input's chain from a live engine
//	tartctl timeline -addr H:P   per-origin critical-path table from /spans
//	tartctl slo -addr H:P        live SLO verdict table from /slo (exit 1 on violation)
//	tartctl adapt -addr H:P      adaptive-runtime state from /adapt: residuals, strategies, decisions
//	tartctl timeline -file s.json -origin w0#3 -chrome t.json   span tree + Perfetto export
//	tartctl rewind -addr H:P -component c -vt T       reconstruct c's state at virtual time T
//	tartctl rewind -addr H:P -component c -diff T1,T2 diff c's state between two virtual times
//	tartctl bisect -addr H:P -component c   localize the first divergent replayed delivery (exit 1)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	tart "repro"
	"repro/internal/topo"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "topo":
		err = showTopo()
	case "wal":
		fs := flag.NewFlagSet("wal", flag.ExitOnError)
		file := fs.String("file", "", "log file to dump")
		_ = fs.Parse(os.Args[2:])
		err = dumpWAL(os.Stdout, *file)
	case "demo":
		fs := flag.NewFlagSet("demo", flag.ExitOnError)
		d := fs.Duration("d", 3*time.Second, "demo duration")
		rate := fs.Float64("rate", 200, "messages/second per source")
		_ = fs.Parse(os.Args[2:])
		err = demo(*d, *rate)
	case "status":
		fs := flag.NewFlagSet("status", flag.ExitOnError)
		addr := fs.String("addr", "", "engine debug HTTP address (host:port)")
		last := fs.Int("trace", 0, "also print the last N flight-recorder events")
		_ = fs.Parse(os.Args[2:])
		err = status(*addr, *last)
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		file := fs.String("file", "", "flight-recorder dump file (JSON array or JSONL)")
		addr := fs.String("addr", "", "engine debug HTTP address (host:port)")
		origin := fs.String("origin", "", "origin ID to trace (e.g. w0#3); empty lists origins")
		last := fs.Int("last", 4096, "with -addr, fetch the last N events")
		_ = fs.Parse(os.Args[2:])
		err = traceCmd(*file, *addr, *origin, *last)
	case "timeline":
		fs := flag.NewFlagSet("timeline", flag.ExitOnError)
		file := fs.String("file", "", "span dump file (JSON array or JSONL, as served by /spans)")
		addr := fs.String("addr", "", "engine debug HTTP address (host:port)")
		origin := fs.String("origin", "", "origin ID to render (e.g. w0#3); empty prints the per-origin table")
		chrome := fs.String("chrome", "", "also write Chrome trace_event JSON to this file (Perfetto-loadable)")
		_ = fs.Parse(os.Args[2:])
		err = timelineCmd(*file, *addr, *origin, *chrome)
	case "slo":
		fs := flag.NewFlagSet("slo", flag.ExitOnError)
		addr := fs.String("addr", "", "engine debug HTTP address (host:port)")
		asJSON := fs.Bool("json", false, "print the raw report JSON instead of the table")
		_ = fs.Parse(os.Args[2:])
		err = sloCmd(*addr, *asJSON)
	case "adapt":
		fs := flag.NewFlagSet("adapt", flag.ExitOnError)
		addr := fs.String("addr", "", "engine debug HTTP address (host:port)")
		last := fs.Int("last", 16, "print the last N adaptive decisions")
		asJSON := fs.Bool("json", false, "print the raw /adapt JSON instead of the tables")
		_ = fs.Parse(os.Args[2:])
		err = adaptCmd(*addr, *last, *asJSON)
	case "rewind":
		fs := flag.NewFlagSet("rewind", flag.ExitOnError)
		addr := fs.String("addr", "", "engine debug HTTP address (host:port)")
		component := fs.String("component", "", "component to reconstruct")
		vtStr := fs.String("vt", "", "virtual time (ticks) to reconstruct the state at")
		diffStr := fs.String("diff", "", "two comma-separated virtual times to diff (vt1,vt2)")
		_ = fs.Parse(os.Args[2:])
		err = rewindCmd(*addr, *component, *vtStr, *diffStr)
	case "bisect":
		fs := flag.NewFlagSet("bisect", flag.ExitOnError)
		addr := fs.String("addr", "", "engine debug HTTP address (host:port)")
		component := fs.String("component", "", "component to bisect against the live audit chain")
		_ = fs.Parse(os.Args[2:])
		err = bisectCmd(*addr, *component)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tartctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tartctl <topo|wal|demo|status|trace|timeline|slo|adapt|rewind|bisect> [flags]")
}

func fig1Topology() (*topo.Topology, error) {
	b := topo.NewBuilder()
	b.AddComponent("sender1")
	b.AddComponent("sender2")
	b.AddComponent("merger")
	b.AddSource("in1", "sender1", "in")
	b.AddSource("in2", "sender2", "in")
	b.Connect("sender1", "out", "merger", "s1")
	b.Connect("sender2", "out", "merger", "s2")
	b.AddSink("out", "merger", "out")
	b.Place("sender1", "A")
	b.Place("sender2", "A")
	b.Place("merger", "B")
	return b.Build()
}

func showTopo() error {
	tp, err := fig1Topology()
	if err != nil {
		return err
	}
	fmt.Println("components:")
	for _, c := range tp.Components() {
		fmt.Printf("  %-10s engine=%-4s inputs=%v outputs=%v\n", c.Name, c.Engine, c.Inputs, c.Outputs)
	}
	fmt.Println("wires:")
	for _, w := range tp.Wires() {
		from, to := "external", "external"
		if w.From != topo.External {
			from = tp.Component(w.From).Name + "." + w.FromPort
		}
		if w.To != topo.External {
			to = tp.Component(w.To).Name + "." + w.ToPort
		}
		local := "remote"
		if tp.IsLocal(w.ID) {
			local = "local"
		}
		fmt.Printf("  %-4v %-14s %-24s -> %-24s delay=%-8v %s\n", w.ID, w.Kind, from, to, w.Delay, local)
	}
	fmt.Println("sources:")
	for _, s := range tp.Sources() {
		fmt.Printf("  %-6s wire=%v\n", s.Name, s.Wire)
	}
	fmt.Println("sinks:")
	for _, s := range tp.Sinks() {
		fmt.Printf("  %-6s wire=%v\n", s.Name, s.Wire)
	}
	return nil
}

// dumpWAL prints a log's live records. It scans read-only — no create, no
// truncate, no write handle — so it is safe against a running engine's log:
// a torn tail there may be a batch still being written, and is reported,
// not repaired.
func dumpWAL(w io.Writer, path string) error {
	if path == "" {
		return fmt.Errorf("wal: -file is required")
	}
	l, torn, err := wal.ScanFile(path)
	if err != nil {
		return err
	}
	// Sources are not enumerable from the log interface; dump known record
	// streams by probing the common source and component names.
	fmt.Fprintf(w, "log %s:\n", path)
	printed := 0
	for _, source := range []string{"in", "in1", "in2", "trades", "requests"} {
		recs, err := l.Inputs(source, 0)
		if err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Fprintf(w, "  input  source=%-8s seq=%-6d vt=%-14d payload=%v\n", r.Source, r.Seq, int64(r.VT), r.Payload)
			printed++
		}
	}
	for _, comp := range []string{"sender1", "sender2", "merger", "counter", "vwap"} {
		faults, err := l.Faults(comp)
		if err != nil {
			return err
		}
		for _, f := range faults {
			if f.Silence != nil {
				fmt.Fprintf(w, "  fault  component=%-8s effective=%v silence=%v\n", f.Component, f.Silence.EffectiveVT, f.Silence.Config.Strategy)
			} else {
				fmt.Fprintf(w, "  fault  component=%-8s effective=%v coeffs=%v\n", f.Component, f.Fault.EffectiveVT, f.Fault.Coeffs)
			}
			printed++
		}
	}
	fmt.Fprintf(w, "%d records shown (well-known source/component names only)\n", printed)
	if torn > 0 {
		fmt.Fprintf(w, "torn tail: %d bytes (not repaired)\n", torn)
	}
	return nil
}

// demoCounter counts messages.
type demoCounter struct{ N int }

func (d *demoCounter) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	d.N++
	return nil, ctx.Send("out", d.N)
}

func demo(d time.Duration, rate float64) error {
	app := tart.NewApp()
	app.Register("sender1", &demoCounter{}, tart.WithConstantCost(61*time.Microsecond))
	app.Register("sender2", &demoCounter{}, tart.WithConstantCost(61*time.Microsecond))
	app.Register("merger", &demoCounter{}, tart.WithConstantCost(400*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.PlaceAll("demo")

	cluster, err := tart.Launch(app, tart.WithCheckpointEvery(250*time.Millisecond))
	if err != nil {
		return err
	}
	defer cluster.Stop()

	var outputs int
	if err := cluster.Sink("out", func(tart.Output) { outputs++ }); err != nil {
		return err
	}
	in1, _ := cluster.Source("in1")
	in2, _ := cluster.Source("in2")

	gap := time.Duration(float64(time.Second) / rate)
	deadline := time.Now().Add(d)
	sent := 0
	for time.Now().Before(deadline) {
		if _, err := in1.Emit(sent); err != nil {
			return err
		}
		if _, err := in2.Emit(sent); err != nil {
			return err
		}
		sent += 2
		time.Sleep(gap)
	}
	time.Sleep(100 * time.Millisecond)
	m, err := cluster.Metrics("demo")
	if err != nil {
		return err
	}
	fmt.Printf("demo: sent %d, sunk %d in %v\n", sent, outputs, d)
	fmt.Printf("  delivered           %d\n", m.Delivered)
	fmt.Printf("  out-of-RT-order     %d\n", m.OutOfOrder)
	fmt.Printf("  probes sent         %d\n", m.ProbesSent)
	fmt.Printf("  silences sent       %d\n", m.SilencesSent)
	fmt.Printf("  pessimism delay     %v over %d episodes\n", m.PessimismDelay, m.PessimismEpisodes)
	fmt.Printf("  checkpoints         %d (%d bytes)\n", m.Checkpoints, m.CheckpointBytes)
	return nil
}
