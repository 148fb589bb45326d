package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/vt"
)

// DefaultRecorderCapacity is the ring size used when a non-positive
// capacity is requested.
const DefaultRecorderCapacity = 8192

// Recorder is a fixed-size flight recorder: a ring buffer of structured
// runtime events stamped with virtual and real time. It is safe for
// concurrent use and cheap enough to leave enabled in production; a nil
// *Recorder is a valid no-op recorder, so instrumented code needs no
// branching beyond the nil receiver check Record performs itself.
//
// The recorder deliberately survives engine restarts: a cluster keeps one
// recorder per engine slot and hands it to every engine generation, so a
// post-failover dump contains the pre-crash story (checkpoints, sends)
// alongside the recovery (failover, replay, duplicate drops).
type Recorder struct {
	mu    sync.Mutex
	buf   []Event
	next  uint64 // total events recorded over the recorder's lifetime
	start int    // index of the oldest event when the ring is full
}

// NewRecorder creates a recorder holding up to capacity events (the
// oldest are overwritten beyond that).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Record appends one event, stamping its recorder sequence number and real
// time. Recording on a nil recorder is a no-op.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.next++
	ev.Seq = r.next
	ev.RT = now
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.start] = ev
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
	}
	r.mu.Unlock()
}

// Total returns the number of events ever recorded (including those the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Events returns a chronological copy of the retained events.
func (r *Recorder) Events() []Event {
	return r.Last(0)
}

// Last returns the most recent n retained events in chronological order;
// n <= 0 returns all retained events.
func (r *Recorder) Last(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// DumpMarker is the value of DumpHeader.Dump that identifies a header line
// in a flight dump (events never carry a "dump" field).
const DumpMarker = "tart-flight"

// DumpHeader is the first line of a flight dump written by WriteDump: the
// dump's provenance and, crucially, the covered virtual-time range. The
// recorder is a ring, so a dump covers [MinVT, MaxVT] — tooling checks a VT
// of interest against that range before trusting the dump's story, and the
// time-travel CLI uses it to say whether a rewind target is still in the
// ring. MinVT/MaxVT are vt.Never when no retained event carries a VT.
type DumpHeader struct {
	Dump   string  `json:"dump"`
	Engine string  `json:"engine,omitempty"`
	Events int     `json:"events"`
	Total  uint64  `json:"total"`
	MinVT  vt.Time `json:"minVT"`
	MaxVT  vt.Time `json:"maxVT"`
}

// WriteDump writes a header line carrying the covered VT range followed by
// the retained events as JSONL. ReadEvents skips the header transparently;
// ReadDump returns it.
func (r *Recorder) WriteDump(w io.Writer, engine string) error {
	events := r.Events()
	h := DumpHeader{Dump: DumpMarker, Engine: engine, Events: len(events),
		Total: r.Total(), MinVT: vt.Never, MaxVT: vt.Never}
	for _, ev := range events {
		if ev.VT < vt.Zero {
			continue // control events stamped Never don't bound coverage
		}
		if h.MinVT == vt.Never || ev.VT < h.MinVT {
			h.MinVT = ev.VT
		}
		if ev.VT > h.MaxVT {
			h.MaxVT = ev.VT
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
