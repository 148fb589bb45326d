package slo

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Objective is one declarative latency objective: the series' q-quantile
// must stay below Bound ("p99 < 50ms").
type Objective struct {
	Quantile float64       `json:"quantile"`
	Bound    time.Duration `json:"bound"`
}

// Name renders the quantile in SLO-spec form ("p99", "p999").
func (o Objective) Name() string {
	s := strconv.FormatFloat(o.Quantile*100, 'f', -1, 64)
	return "p" + strings.ReplaceAll(s, ".", "")
}

// String renders the objective in its parseable form.
func (o Objective) String() string { return fmt.Sprintf("%s<%v", o.Name(), o.Bound) }

// ParseObjectives parses a comma-separated objective list such as
// "p99<50ms,p999<250ms". Quantile syntax is pNN[N...]: p50, p99, p999
// (= 99.9%), p9999.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lt := strings.IndexByte(part, '<')
		if lt < 0 || !strings.HasPrefix(part, "p") {
			return nil, fmt.Errorf("slo: bad objective %q (want pNN<bound, e.g. p99<50ms)", part)
		}
		digits := part[1:lt]
		if digits == "" {
			return nil, fmt.Errorf("slo: bad quantile in %q", part)
		}
		q, err := parseQuantile(digits)
		if err != nil {
			return nil, fmt.Errorf("slo: bad quantile in %q: %w", part, err)
		}
		bound, err := time.ParseDuration(strings.TrimSpace(part[lt+1:]))
		if err != nil {
			return nil, fmt.Errorf("slo: bad bound in %q: %w", part, err)
		}
		if bound <= 0 {
			return nil, fmt.Errorf("slo: bound in %q must be positive", part)
		}
		out = append(out, Objective{Quantile: q, Bound: bound})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty objective list %q", spec)
	}
	return out, nil
}

// parseQuantile maps "50"→0.50, "99"→0.99, "999"→0.999, "9999"→0.9999.
// More than two digits is only meaningful in the tail-nines convention
// (p999 = 99.9%), so anything longer not starting with "99" is rejected as
// ambiguous.
func parseQuantile(digits string) (float64, error) {
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("non-digit %q", c)
		}
	}
	if len(digits) > 2 && !strings.HasPrefix(digits, "99") {
		return 0, fmt.Errorf("ambiguous %q (tail quantiles use p999-style nines)", "p"+digits)
	}
	v, err := strconv.ParseFloat(digits, 64)
	if err != nil {
		return 0, err
	}
	scale := 100.0
	for len(digits) > 2 {
		scale *= 10
		digits = digits[1:]
	}
	q := v / scale
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v out of (0,1)", q)
	}
	return q, nil
}

// BudgetPolicy is a windowed error-budget policy: observations above
// Threshold are breaches, and the fraction of breaching observations over
// the trailing Window may spend at most Budget (e.g. 0.01 = 1% of requests
// may exceed Threshold). BurnRate 1.0 means breaching at exactly the
// budgeted rate; above 1.0 the budget is burning down.
type BudgetPolicy struct {
	Threshold time.Duration `json:"threshold"`
	Budget    float64       `json:"budget"`
	Window    time.Duration `json:"window"`
}

// budgetSlots is the burn window's ring resolution.
const budgetSlots = 30

// budgetWindow tracks breaches over a sliding window as a ring of
// fixed-width slots rotated by wall time.
type budgetWindow struct {
	mu       sync.Mutex
	slotDur  time.Duration
	slots    [budgetSlots]struct{ total, breach uint64 }
	slotIdx  [budgetSlots]int64 // absolute slot number occupying each cell
	lastSlot int64
}

func newBudgetWindow(window time.Duration) *budgetWindow {
	sd := window / budgetSlots
	if sd < 10*time.Millisecond {
		sd = 10 * time.Millisecond
	}
	return &budgetWindow{slotDur: sd}
}

func (b *budgetWindow) observe(now time.Time, breach bool) {
	slot := now.UnixNano() / int64(b.slotDur)
	i := int(slot % budgetSlots)
	b.mu.Lock()
	if b.slotIdx[i] != slot {
		b.slots[i] = struct{ total, breach uint64 }{}
		b.slotIdx[i] = slot
	}
	b.slots[i].total++
	if breach {
		b.slots[i].breach++
	}
	if slot > b.lastSlot {
		b.lastSlot = slot
	}
	b.mu.Unlock()
}

// rate returns (breach fraction over the live window, total observations).
func (b *budgetWindow) rate(now time.Time) (float64, uint64) {
	slot := now.UnixNano() / int64(b.slotDur)
	b.mu.Lock()
	defer b.mu.Unlock()
	var total, breach uint64
	for i := range b.slots {
		if slot-b.slotIdx[i] < budgetSlots {
			total += b.slots[i].total
			breach += b.slots[i].breach
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(breach) / float64(total), total
}

// Tracker aggregates latency observations per named series (end-to-end,
// per-phase, per-scenario — the key is free-form) and evaluates objectives
// and the budget policy.
type Tracker struct {
	objectives []Objective
	budget     *BudgetPolicy

	mu     sync.Mutex
	series map[string]*track
	order  []string
}

type track struct {
	hist     *Hist
	breaches atomic.Uint64
	window   *budgetWindow
}

// NewTracker creates a tracker evaluating the given objectives (at least
// one) against every series; budget may be nil (no burn tracking).
func NewTracker(objectives []Objective, budget *BudgetPolicy) *Tracker {
	return &Tracker{
		objectives: append([]Objective(nil), objectives...),
		budget:     budget,
		series:     make(map[string]*track),
	}
}

// Objectives returns the tracker's objective list.
func (t *Tracker) Objectives() []Objective { return append([]Objective(nil), t.objectives...) }

func (t *Tracker) track(series string) *track {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.series[series]
	if !ok {
		tr = &track{hist: NewHist()}
		if t.budget != nil {
			tr.window = newBudgetWindow(t.budget.Window)
		}
		t.series[series] = tr
		t.order = append(t.order, series)
	}
	return tr
}

// Observe records one latency observation for the series. Safe for
// concurrent use; the per-series fast path is one map read under a short
// lock plus lock-free histogram math.
func (t *Tracker) Observe(series string, d time.Duration) {
	tr := t.track(series)
	tr.hist.Observe(d)
	if t.budget != nil {
		breach := d > t.budget.Threshold
		if breach {
			tr.breaches.Add(1)
		}
		tr.window.observe(time.Now(), breach)
	}
}

// Verdict is one objective evaluated against one series.
type Verdict struct {
	Objective Objective     `json:"objective"`
	Actual    time.Duration `json:"actual"`
	OK        bool          `json:"ok"`
}

// Row is the live evaluation of one series.
type Row struct {
	Series   string        `json:"series"`
	Count    uint64        `json:"count"`
	Mean     time.Duration `json:"mean"`
	P50      time.Duration `json:"p50"`
	P90      time.Duration `json:"p90"`
	P99      time.Duration `json:"p99"`
	P999     time.Duration `json:"p999"`
	Max      time.Duration `json:"max"`
	Verdicts []Verdict     `json:"verdicts"`
	OK       bool          `json:"ok"`
	// BurnRate is the error-budget burn over the policy window (0 without
	// a policy); Breaches the lifetime count of over-threshold
	// observations.
	BurnRate float64 `json:"burnRate"`
	Breaches uint64  `json:"breaches"`
}

// Report is a full tracker evaluation.
type Report struct {
	Rows       []Row         `json:"rows"`
	Objectives []Objective   `json:"objectives"`
	Budget     *BudgetPolicy `json:"budget,omitempty"`
	OK         bool          `json:"ok"`
}

// Report evaluates every series in first-observation order.
func (t *Tracker) Report() Report {
	t.mu.Lock()
	names := append([]string(nil), t.order...)
	tracks := make([]*track, len(names))
	for i, n := range names {
		tracks[i] = t.series[n]
	}
	t.mu.Unlock()

	rep := Report{Objectives: t.Objectives(), Budget: t.budget, OK: true}
	now := time.Now()
	for i, name := range names {
		tr := tracks[i]
		s := tr.hist.Snapshot()
		row := Row{
			Series: name, Count: s.Count, Mean: s.Mean(),
			P50: s.Quantile(0.50), P90: s.Quantile(0.90),
			P99: s.Quantile(0.99), P999: s.Quantile(0.999), Max: s.Max,
			OK: true,
		}
		for _, o := range t.objectives {
			v := Verdict{Objective: o, Actual: s.Quantile(o.Quantile)}
			v.OK = s.Count == 0 || v.Actual < o.Bound
			if !v.OK {
				row.OK = false
			}
			row.Verdicts = append(row.Verdicts, v)
		}
		if t.budget != nil {
			frac, _ := tr.window.rate(now)
			row.BurnRate = frac / t.budget.Budget
			row.Breaches = tr.breaches.Load()
			if row.BurnRate > 1 {
				row.OK = false
			}
		}
		if !row.OK {
			rep.OK = false
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// WriteTable renders the report as an aligned text table with one verdict
// column per objective.
func (r Report) WriteTable(w io.Writer) {
	cols := []string{"series", "count", "mean", "p50", "p90", "p99", "p999", "max"}
	for _, o := range r.Objectives {
		cols = append(cols, o.String())
	}
	if r.Budget != nil {
		cols = append(cols, "burn")
	}
	cols = append(cols, "verdict")
	rows := [][]string{cols}
	for _, row := range r.Rows {
		cells := []string{
			row.Series, strconv.FormatUint(row.Count, 10), fmtDur(row.Mean),
			fmtDur(row.P50), fmtDur(row.P90), fmtDur(row.P99), fmtDur(row.P999), fmtDur(row.Max),
		}
		for _, v := range row.Verdicts {
			mark := "ok"
			if !v.OK {
				mark = "FAIL"
			}
			cells = append(cells, fmt.Sprintf("%s %s", fmtDur(v.Actual), mark))
		}
		if r.Budget != nil {
			cells = append(cells, fmt.Sprintf("%.2fx", row.BurnRate))
		}
		if row.OK {
			cells = append(cells, "PASS")
		} else {
			cells = append(cells, "FAIL")
		}
		rows = append(rows, cells)
	}
	writeAligned(w, rows)
}

// fmtDur renders a duration rounded to a readable precision.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	// Pad by rune count, not byte length: duration cells contain "µ".
	widths := make([]int, 0)
	for _, r := range rows {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	for _, r := range rows {
		var b strings.Builder
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(r)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return
		}
	}
}

// SnapshotOf returns the named series' histogram snapshot (zero Snapshot
// when the series is unknown).
func (t *Tracker) SnapshotOf(series string) Snapshot {
	t.mu.Lock()
	tr := t.series[series]
	t.mu.Unlock()
	if tr == nil {
		return Snapshot{}
	}
	return tr.hist.Snapshot()
}
