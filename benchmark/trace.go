package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	tart "repro"
)

// epoch is the harness clock origin; every timestamp the harness takes is
// nanoseconds since it (monotonic, so wall-clock steps cannot move it).
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// hspan is one harness-side span: a call the harness made into a public
// function of the system, or a phase that groups such calls.
type hspan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps harness spans in memory until the run ends. A nil or
// disabled tracer costs one branch per call, so untraced runs measure the
// system and not the tracing.
type tracer struct {
	on    bool
	run   int
	mu    sync.Mutex
	spans []hspan
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	now := nowNs()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, hspan{ID: id, Parent: parent, Run: t.run, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := nowNs()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, total duration minus the part covered
// by child spans: where the time of a nested call tree was actually spent.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return self
}

// writeChrome writes one Chrome trace: the harness spans as process 0 and
// the system's sampled spans as tart.WriteChromeTrace renders them (one
// process per engine), shifted onto the harness clock.
func (t *tracer) writeChrome(w io.Writer, sys []tart.Span) error {
	var sysBuf bytes.Buffer
	if err := tart.WriteChromeTrace(&sysBuf, sys); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(sysBuf.Bytes(), &doc); err != nil {
		return fmt.Errorf("system spans: %w", err)
	}
	// WriteChromeTrace counts microseconds from its earliest span.
	var first time.Time
	for _, s := range sys {
		if first.IsZero() || s.Start.Before(first) {
			first = s.Start
		}
	}
	shift := float64(first.Sub(epoch)) / 1e3
	for _, ev := range doc.TraceEvents {
		if ts, ok := ev["ts"].(float64); ok && ev["ph"] == "X" {
			ev["ts"] = ts + shift
		}
	}
	events := doc.TraceEvents
	events = append(events, map[string]any{
		"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
		"args": map[string]any{"name": "tartbench harness"},
	})
	t.mu.Lock()
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		events = append(events, map[string]any{
			"name": s.Name, "cat": "harness", "ph": "X",
			"ts": float64(s.Start) / 1e3, "dur": float64(s.End-s.Start) / 1e3,
			"pid": 0, "tid": 1,
			"args": map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
