package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

func TestSamplingDeterministicAndNilSafe(t *testing.T) {
	var nilC *Collector
	if nilC.Sampled(msg.NewOrigin(1, 1)) {
		t.Fatal("nil collector must never sample")
	}
	nilC.Record(Span{}) // must not panic
	if nilC.Spans() != nil {
		t.Fatal("nil collector accessors must be zero")
	}

	c := NewCollector("e", 16, 64)
	if c.Sampled(0) {
		t.Fatal("unknown origin (zero) must never be sampled")
	}
	// Deterministic: two collectors with the same rate agree on every origin.
	d := NewCollector("other", 16, 64)
	sampled := 0
	for w := msg.WireID(0); w < 8; w++ {
		for seq := uint64(1); seq <= 512; seq++ {
			o := msg.NewOrigin(w, seq)
			if c.Sampled(o) != d.Sampled(o) {
				t.Fatalf("collectors disagree on %v", o)
			}
			if c.Sampled(o) {
				sampled++
			}
		}
	}
	// 4096 origins at 1/64: expect roughly 64, allow a wide band — the
	// point is "head sampling thins the stream", not an exact binomial.
	if sampled < 16 || sampled > 256 {
		t.Fatalf("sampled %d of 4096 origins at 1/64; want roughly 64", sampled)
	}

	all := NewCollector("e", 16, 1)
	if !all.Sampled(msg.NewOrigin(3, 9)) {
		t.Fatal("sampleN=1 must sample every known origin")
	}
	if all.Sampled(0) {
		t.Fatal("sampleN=1 must still skip unknown origins")
	}
}

func TestCollectorRingOverwrite(t *testing.T) {
	c := NewCollector("e", 4, 1)
	base := time.Unix(0, 0)
	for i := 1; i <= 6; i++ {
		c.Record(Span{
			Origin: msg.NewOrigin(0, uint64(i)),
			Phase:  PhaseCompute,
			Start:  base,
			End:    base.Add(time.Millisecond),
		})
	}
	got := c.Spans()
	if len(got) != 4 {
		t.Fatalf("Spans returned %d, want 4 (capacity)", len(got))
	}
	// Oldest two were overwritten; survivors are 3..6 in record order, and
	// their IDs count every span ever recorded.
	for i, s := range got {
		if want := uint64(i + 3); s.Origin.Seq() != want || s.ID != want {
			t.Fatalf("span %d has seq %d ID %d, want %d", i, s.Origin.Seq(), s.ID, want)
		}
	}
}

func TestCollectorObserverSeesPhaseAndReplay(t *testing.T) {
	c := NewCollector("e", 8, 1)
	var phases []string
	c.SetObserver(func(phase string, seconds float64) {
		phases = append(phases, phase)
		if seconds <= 0 {
			t.Fatalf("observer got non-positive duration for %s", phase)
		}
	})
	base := time.Unix(10, 0)
	c.Record(Span{Origin: msg.NewOrigin(0, 1), Phase: PhaseCompute, Start: base, End: base.Add(time.Millisecond)})
	c.Record(Span{Origin: msg.NewOrigin(0, 1), Phase: PhaseCompute, Replayed: true, Start: base, End: base.Add(time.Millisecond)})
	if len(phases) != 2 || phases[0] != "compute" || phases[1] != "replay" {
		t.Fatalf("observer saw %v, want [compute replay]", phases)
	}
}

// mk builds a span in a compact way for the tiling tests below. Offsets are
// in microseconds from a fixed epoch.
func mk(phase Phase, startUS, endUS int64, replayed bool) Span {
	epoch := time.Unix(100, 0)
	return Span{
		Origin:   msg.NewOrigin(0, 7),
		Phase:    phase,
		Start:    epoch.Add(time.Duration(startUS) * time.Microsecond),
		End:      epoch.Add(time.Duration(endUS) * time.Microsecond),
		StartVT:  vt.Time(startUS),
		EndVT:    vt.Time(endUS),
		Replayed: replayed,
	}
}

func TestCriticalPathExactTiling(t *testing.T) {
	// hop 1: queueing [0,10), pessimism [10,40), compute [40,50)
	// gap [50,120) before a queueing span -> transport flight
	// hop 2: queueing [120,125), compute [125,140)
	// linger [140,200)
	spans := []Span{
		mk(PhaseQueueing, 0, 10, false),
		mk(PhasePessimism, 10, 40, false),
		mk(PhaseCompute, 40, 50, false),
		mk(PhaseQueueing, 120, 125, false),
		mk(PhaseCompute, 125, 140, false),
		mk(PhaseLinger, 140, 200, false),
	}
	b := CriticalPath(spans, msg.NewOrigin(0, 7))
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	if b.Total != us(200) {
		t.Fatalf("Total = %v, want 200µs", b.Total)
	}
	want := map[Phase]time.Duration{
		PhaseQueueing:  us(15),
		PhasePessimism: us(30),
		PhaseCompute:   us(25),
		PhaseTransport: us(70),
		PhaseLinger:    us(60),
	}
	var sum time.Duration
	for p, d := range b.ByPhase {
		sum += d
		if want[p] != d {
			t.Errorf("phase %v = %v, want %v", p, d, want[p])
		}
	}
	if sum != b.Total {
		t.Fatalf("phase sum %v != total %v — tiling must be exact", sum, b.Total)
	}
	if b.Replayed {
		t.Fatal("no replayed spans, breakdown must not be marked replayed")
	}
}

func TestCriticalPathGapsOverlapsAndReplay(t *testing.T) {
	// Overlapping spans: the cursor clamps the second span's contribution.
	// A gap NOT followed by a queueing span is charged to queueing (local
	// scheduling slack), and replayed spans land in PhaseReplay.
	spans := []Span{
		mk(PhaseQueueing, 0, 20, false),
		mk(PhaseCompute, 10, 30, false),  // overlaps by 10 -> contributes 10
		mk(PhaseCompute, 50, 60, true),   // gap [30,50) -> queueing; replayed span -> PhaseReplay
		mk(PhasePessimism, 60, 60, true), // zero-width, no contribution
	}
	b := CriticalPath(spans, msg.NewOrigin(0, 7))
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	if b.Total != us(60) {
		t.Fatalf("Total = %v, want 60µs", b.Total)
	}
	if got := b.ByPhase[PhaseQueueing]; got != us(40) { // 20 span + 20 gap
		t.Fatalf("queueing = %v, want 40µs", got)
	}
	if got := b.ByPhase[PhaseCompute]; got != us(10) {
		t.Fatalf("compute = %v, want 10µs (overlap clamped)", got)
	}
	if got := b.ByPhase[PhaseReplay]; got != us(10) {
		t.Fatalf("replay = %v, want 10µs", got)
	}
	if !b.Replayed {
		t.Fatal("breakdown must be marked replayed")
	}
	var sum time.Duration
	for _, d := range b.ByPhase {
		sum += d
	}
	if sum != b.Total {
		t.Fatalf("phase sum %v != total %v", sum, b.Total)
	}
}

func TestBreakdownsAndAggregate(t *testing.T) {
	a := mk(PhaseCompute, 0, 10, false)
	b := mk(PhaseCompute, 5, 25, false)
	b.Origin = msg.NewOrigin(1, 3)
	all := []Span{b, a} // out of origin order on purpose
	table := Breakdowns(all)
	if len(table) != 2 {
		t.Fatalf("got %d breakdowns, want 2", len(table))
	}
	if table[0].Origin != a.Origin || table[1].Origin != b.Origin {
		t.Fatalf("breakdowns not sorted by origin: %v, %v", table[0].Origin, table[1].Origin)
	}
	agg := Aggregate(table)
	if agg.Total != table[0].Total+table[1].Total {
		t.Fatalf("aggregate total %v != sum of per-origin totals", agg.Total)
	}
	if agg.Spans != 2 {
		t.Fatalf("aggregate spans = %d, want 2", agg.Spans)
	}
	if agg.Start != a.Start || agg.End != b.End {
		t.Fatal("aggregate must span min start to max end")
	}
}

func TestChromeTraceExport(t *testing.T) {
	spans := []Span{
		mk(PhaseQueueing, 0, 10, false),
		mk(PhaseCompute, 10, 30, false),
		mk(PhaseLinger, 30, 90, false),
	}
	for i := range spans {
		spans[i].Engine = "A"
		spans[i].Component = "merger"
		spans[i].ID = uint64(i + 1)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var xEvents, mEvents int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
		case "M":
			mEvents++
		}
	}
	if xEvents != 3 {
		t.Fatalf("got %d complete events, want 3", xEvents)
	}
	if mEvents == 0 {
		t.Fatal("expected process/thread metadata events")
	}
	// Empty input must still produce a valid document.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace invalid: %v", err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	spans := []Span{
		mk(PhaseQueueing, 0, 10, false),
		mk(PhaseCompute, 10, 30, true),
	}
	spans[0].ID, spans[1].ID = 1, 2
	spans[1].Note = "blame=w2"
	var buf bytes.Buffer
	if err := WriteJSON(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[1].Replayed || got[1].Note != "blame=w2" {
		t.Fatalf("array roundtrip lost data: %+v", got)
	}
	if got[0].Phase != PhaseQueueing || got[1].Phase != PhaseCompute {
		t.Fatalf("phases did not survive roundtrip: %v, %v", got[0].Phase, got[1].Phase)
	}

	// JSONL form is accepted too.
	var lines strings.Builder
	for _, s := range spans {
		b, _ := json.Marshal(s)
		lines.Write(b)
		lines.WriteByte('\n')
	}
	got, err = ReadSpans(strings.NewReader(lines.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Note != "blame=w2" {
		t.Fatalf("JSONL roundtrip lost data: %+v", got)
	}
}

func TestPhaseJSONStableNames(t *testing.T) {
	for _, p := range Phases() {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Phase
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Fatalf("phase %v did not roundtrip (%s)", p, b)
		}
	}
}

// TestDecideAtDeterministic verifies the no-half-tracing contract: the mark
// a source stamps is a pure function of the origin, so a re-stamp during
// WAL replay, or on another engine's collector with the same modulus,
// reproduces the original decision, and resolving the mark agrees with
// the static rule. A nil collector or a zero origin leaves it undecided.
func TestDecideAtDeterministic(t *testing.T) {
	var nilC *Collector
	if nilC.DecideAt(msg.NewOrigin(3, 1)) != 0 {
		t.Fatal("nil collector must leave the mark undecided")
	}
	c := NewCollector("e0", 0, 4)
	replica := NewCollector("e1", 0, 4)
	sampled := 0
	for seq := uint64(1); seq <= 400; seq++ {
		o := msg.NewOrigin(3, seq)
		d := c.DecideAt(o)
		if d != msg.TraceSampled && d != msg.TraceUnsampled {
			t.Fatalf("origin %v: mark %d is neither sampled nor unsampled", o, d)
		}
		if got := replica.DecideAt(o); got != d {
			t.Fatalf("origin %v: replay decided %d, original %d", o, got, d)
		}
		if c.Decided(d, o) != c.Sampled(o) {
			t.Fatalf("origin %v: mark %d disagrees with Sampled", o, d)
		}
		if d == msg.TraceSampled {
			sampled++
		}
	}
	if sampled == 0 || sampled == 400 {
		t.Fatalf("1/4 sampling picked %d of 400 origins", sampled)
	}
}

func TestDecidedResolution(t *testing.T) {
	c := NewCollector("e0", 0, 2)
	var nilC *Collector
	if nilC.Decided(msg.TraceSampled, msg.NewOrigin(1, 1)) {
		t.Fatal("nil collector must sample nothing")
	}
	o := msg.NewOrigin(1, 1)
	if !c.Decided(msg.TraceSampled, o) || c.Decided(msg.TraceUnsampled, o) {
		t.Fatal("explicit marks must win")
	}
	// Undecided falls back to the static hash rule.
	if c.Decided(0, o) != c.Sampled(o) {
		t.Fatal("undecided mark must fall back to Sampled")
	}
	if c.DecideAt(0) != 0 {
		t.Fatal("zero origin stays undecided")
	}
}

func TestOriginHashMatchesSampler(t *testing.T) {
	c := NewCollector("e0", 0, 8)
	for seq := uint64(1); seq <= 64; seq++ {
		o := msg.NewOrigin(2, seq)
		if (OriginHash(o)%8 == 0) != c.Sampled(o) {
			t.Fatalf("OriginHash disagrees with Sampled for %v", o)
		}
	}
}
