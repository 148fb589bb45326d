package engine

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/trace"
	spanpkg "repro/internal/trace/span"
)

// debugServer is the engine's optional ops surface: a plain HTTP listener
// (off by default, enabled via Config.DebugAddr) exposing live metrics,
// health, the flight recorder, and the topology. It serves operators and
// tooling (tartctl status); nothing in the data path depends on it.
type debugServer struct {
	e    *Engine
	ln   net.Listener
	srv  *http.Server
	once sync.Once
}

// startDebug binds the debug listener when configured. Binding failures
// fail Start: a requested ops surface that silently isn't there is worse
// than a loud error.
func (e *Engine) startDebug() error {
	if e.cfg.DebugAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", e.cfg.DebugAddr)
	if err != nil {
		return err
	}
	d := &debugServer{e: e, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/trace", d.handleTrace)
	mux.HandleFunc("/spans", d.handleSpans)
	mux.HandleFunc("/topology", d.handleTopology)
	mux.HandleFunc("/supervisor", d.handleSupervisor)
	mux.HandleFunc("/slo", d.handleSLO)
	mux.HandleFunc("/adapt", d.handleAdapt)
	mux.HandleFunc("/rewind", d.handleRewind)
	if e.cfg.DebugPprof {
		// Off by default: pprof endpoints can stop the world (heap dumps,
		// full goroutine stacks), so operators opt in per engine.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	d.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	e.debug = d
	e.done.Add(1)
	go func() {
		defer e.done.Done()
		_ = d.srv.Serve(ln) // returns on close
	}()
	return nil
}

func (d *debugServer) close() {
	d.once.Do(func() { _ = d.srv.Close() })
}

// DebugAddr returns the bound address of the debug HTTP listener, or ""
// when disabled. With Config.DebugAddr "127.0.0.1:0" this is the way to
// learn the ephemeral port.
func (e *Engine) DebugAddr() string {
	if e.debug == nil {
		return ""
	}
	return e.debug.ln.Addr().String()
}

func (d *debugServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Refresh the rewind-distance gauges at scrape time so the checkpoint
	// age tracks the live clock between checkpoints.
	d.e.refreshCheckpointGauges()
	_ = d.e.metrics.Registry().WritePrometheus(w)
	if d.e.cfg.ExtraMetrics != nil {
		// Cluster-level series (failover supervisor): distinct family names,
		// so appending keeps the exposition well-formed.
		d.e.cfg.ExtraMetrics(w)
	}
}

// handleSupervisor serves the cluster failover supervisor's status (404
// when the hosting cluster runs without one).
func (d *debugServer) handleSupervisor(w http.ResponseWriter, r *http.Request) {
	if d.e.cfg.SupervisorInfo == nil {
		http.Error(w, "no failover supervisor (enable with WithSupervisor)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d.e.cfg.SupervisorInfo())
}

// handleRewind serves time-travel queries (state reconstruction, diffs,
// divergence bisection, archived-point listing) against the cluster's
// inspector; 404 when time travel is disabled, 400 with the inspector's
// error text when a query cannot be answered (e.g. the target VT predates
// the oldest retained rewind point).
func (d *debugServer) handleRewind(w http.ResponseWriter, r *http.Request) {
	if d.e.cfg.RewindInfo == nil {
		http.Error(w, "time travel disabled (enable with WithTimeTravel)", http.StatusNotFound)
		return
	}
	res, err := d.e.cfg.RewindInfo(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
}

// handleSLO serves the cluster's live SLO evaluation (404 when no SLO
// tracker is attached).
func (d *debugServer) handleSLO(w http.ResponseWriter, r *http.Request) {
	if d.e.cfg.SLOInfo == nil {
		http.Error(w, "no SLO tracker attached (enable with WithSLO)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d.e.cfg.SLOInfo())
}

// handleAdapt serves the adaptive runtime controller's status — SLO-burn
// degradation and the most recent decisions with their causes (404 when
// the cluster runs without one).
func (d *debugServer) handleAdapt(w http.ResponseWriter, r *http.Request) {
	if d.e.cfg.AdaptInfo == nil {
		http.Error(w, "no adaptive runtime attached (enable with WithAdaptiveRuntime)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d.e.cfg.AdaptInfo())
}

// healthz reports engine liveness and peer connectivity; any disconnected
// peer makes the engine unhealthy (503) since merges fed from it stall.
func (d *debugServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type peerStatus struct {
		Connected bool      `json:"connected"`
		LastHeard time.Time `json:"lastHeard,omitempty"`
	}
	health := d.e.PeerHealth()
	resp := struct {
		Engine     string                `json:"engine"`
		Healthy    bool                  `json:"healthy"`
		Components []string              `json:"components"`
		Peers      map[string]peerStatus `json:"peers,omitempty"`
	}{Engine: d.e.name, Healthy: true, Peers: make(map[string]peerStatus, len(health))}
	for _, h := range d.e.sortedHosted() {
		resp.Components = append(resp.Components, h.name)
	}
	for peer, ph := range health {
		resp.Peers[peer] = peerStatus{Connected: ph.Connected, LastHeard: ph.LastHeard}
		if !ph.Connected {
			resp.Healthy = false
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// handleTrace serves the flight recorder's most recent events as a JSON
// array; ?last=N bounds the count (default 256, <=0 for everything
// retained).
func (d *debugServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	last := 256
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad last parameter", http.StatusBadRequest)
			return
		}
		last = n
	}
	events := d.e.rec.Last(last)
	if events == nil {
		events = []trace.Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(events)
}

// handleSpans serves the span collector's retained spans. ?origin=w0#3
// filters to one origin; ?format=chrome renders Chrome trace_event JSON
// (Perfetto-loadable) instead of the raw span array. 404 when span
// tracing is disabled.
func (d *debugServer) handleSpans(w http.ResponseWriter, r *http.Request) {
	col := d.e.metrics.Spans()
	if col == nil {
		http.Error(w, "span tracing disabled (enable with WithSpanTracing)", http.StatusNotFound)
		return
	}
	spans := col.Spans()
	if v := r.URL.Query().Get("origin"); v != "" {
		o, err := msg.ParseOrigin(v)
		if err != nil {
			http.Error(w, "bad origin parameter", http.StatusBadRequest)
			return
		}
		filtered := spans[:0]
		for _, s := range spans {
			if s.Origin == o {
				filtered = append(filtered, s)
			}
		}
		spans = filtered
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = spanpkg.WriteChromeTrace(w, spans)
		return
	}
	if spans == nil {
		spans = []spanpkg.Span{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = spanpkg.WriteJSON(w, spans)
}

// handleTopology renders the application topology with placements, so an
// operator can map wire labels in /metrics back to the application graph.
func (d *debugServer) handleTopology(w http.ResponseWriter, r *http.Request) {
	tp := d.e.tp
	type wireJSON struct {
		ID    string `json:"id"`
		Kind  string `json:"kind"`
		Label string `json:"label"`
		Delay int64  `json:"delayTicks"`
	}
	type compJSON struct {
		Name   string   `json:"name"`
		Engine string   `json:"engine"`
		Local  bool     `json:"local"`
		Inputs []string `json:"inputs,omitempty"`
	}
	resp := struct {
		Engine     string     `json:"engine"`
		Components []compJSON `json:"components"`
		Wires      []wireJSON `json:"wires"`
	}{Engine: d.e.name}
	for _, c := range tp.Components() {
		cj := compJSON{Name: c.Name, Engine: c.Engine, Local: c.Engine == d.e.name}
		for _, wid := range c.Inputs {
			cj.Inputs = append(cj.Inputs, sched.WireName(tp, tp.Wire(wid)))
		}
		resp.Components = append(resp.Components, cj)
	}
	sort.Slice(resp.Components, func(i, j int) bool { return resp.Components[i].Name < resp.Components[j].Name })
	for _, wire := range tp.Wires() {
		resp.Wires = append(resp.Wires, wireJSON{
			ID:    wire.ID.String(),
			Kind:  wire.Kind.String(),
			Label: sched.WireName(tp, wire),
			Delay: int64(wire.Delay),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
