package tart

import (
	"encoding/json"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/trace"
	spanpkg "repro/internal/trace/span"
)

// debugServer is one engine incarnation's ops surface (WithDebugHTTP): live
// metrics, health, the flight recorder, spans, the topology and the
// cluster's supervisor and time-travel state, for operators and tooling
// (tartctl status). Nothing in the data path uses it.
type debugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

// serveDebug binds the debug listener of one of the slot's incarnations at
// addr. A bind failure fails the Launch, Recover or Reopen that asked for
// it: a requested ops surface that silently isn't there is worse than a
// loud error.
func (c *Cluster) serveDebug(addr string, slot *engineSlot, in *incarnation) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := debugHandlers{c: c, slot: slot, in: in}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/trace", h.trace)
	mux.HandleFunc("/spans", h.spans)
	mux.HandleFunc("/topology", h.topology)
	mux.HandleFunc("/supervisor", h.supervisor)
	mux.HandleFunc("/rewind", h.rewind)
	d := &debugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // returns on close
	}()
	return d, nil
}

// close stops the listener and waits for its Serve loop; nil-safe.
func (d *debugServer) close() {
	if d != nil {
		_ = d.srv.Close()
		<-d.done
	}
}

// addr is the bound address ("" without a listener).
func (d *debugServer) addr() string {
	if d == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// debugHandlers serve one incarnation's endpoints.
type debugHandlers struct {
	c    *Cluster
	slot *engineSlot
	in   *incarnation
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// supervisor serves the failover supervisor's status as JSON; 404 when
// the cluster runs without one.
func (h debugHandlers) supervisor(w http.ResponseWriter, r *http.Request) {
	if h.c.sup == nil {
		http.Error(w, "no failover supervisor (enable with WithSupervisor)", http.StatusNotFound)
		return
	}
	writeJSON(w, h.c.sup.status())
}

// metrics serves the incarnation's registry as Prometheus text, followed
// by the cluster-level families (the supervisor's) under
// their own names, so the exposition stays well-formed.
func (h debugHandlers) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.in.reg.WritePrometheus(w)
	_ = h.c.ctl.reg.WritePrometheus(w)
}

// rewind serves time-travel queries (state reconstruction, diffs,
// divergence bisection, archived-point listing) against the cluster's
// inspector; 404 when time travel is disabled, 400 with the inspector's
// error text when a query cannot be answered (e.g. the target VT predates
// the oldest retained rewind point).
func (h debugHandlers) rewind(w http.ResponseWriter, r *http.Request) {
	if h.c.insp == nil {
		http.Error(w, "time travel disabled (enable with WithTimeTravel)", http.StatusNotFound)
		return
	}
	res, err := h.c.rewindInfo(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, res)
}

// healthz reports engine liveness and peer connectivity; any disconnected
// peer makes the engine unhealthy (503) since merges fed from it stall.
func (h debugHandlers) healthz(w http.ResponseWriter, r *http.Request) {
	type peerStatus struct {
		Connected bool      `json:"connected"`
		LastHeard time.Time `json:"lastHeard,omitempty"`
	}
	health := h.in.eng.PeerHealth()
	resp := struct {
		Engine     string                `json:"engine"`
		Healthy    bool                  `json:"healthy"`
		Components []string              `json:"components"`
		Peers      map[string]peerStatus `json:"peers,omitempty"`
	}{Engine: h.slot.name, Healthy: true, Components: h.in.eng.Hosted(), Peers: make(map[string]peerStatus, len(health))}
	for peer, ph := range health {
		resp.Peers[peer] = peerStatus{Connected: ph.Connected, LastHeard: ph.LastHeard}
		if !ph.Connected {
			resp.Healthy = false
		}
	}
	if !resp.Healthy {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, resp)
}

// trace serves the flight recorder's most recent events as a JSON array;
// ?last=N bounds the count (default 256, <=0 for everything retained).
func (h debugHandlers) trace(w http.ResponseWriter, r *http.Request) {
	last := 256
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad last parameter", http.StatusBadRequest)
			return
		}
		last = n
	}
	events := h.slot.rec.Last(last)
	if events == nil {
		events = []trace.Event{}
	}
	writeJSON(w, events)
}

// spans serves the span collector's retained spans. ?origin=w0#3 filters
// to one origin; ?format=chrome renders Chrome trace_event JSON
// (Perfetto-loadable) instead of the raw span array. 404 when span tracing
// is disabled.
func (h debugHandlers) spans(w http.ResponseWriter, r *http.Request) {
	col := h.slot.spans
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
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		_ = spanpkg.WriteChromeTrace(w, spans)
		return
	}
	if spans == nil {
		spans = []spanpkg.Span{}
	}
	_ = spanpkg.WriteJSON(w, spans)
}

// topology renders the application topology with placements, so an
// operator can map wire labels in /metrics back to the application graph.
func (h debugHandlers) topology(w http.ResponseWriter, r *http.Request) {
	tp, name := h.c.tp, h.slot.name
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
	}{Engine: name}
	for _, c := range tp.Components() {
		cj := compJSON{Name: c.Name, Engine: c.Engine, Local: c.Engine == name}
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
	writeJSON(w, resp)
}
