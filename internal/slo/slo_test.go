package slo

import (
	"strings"
	"testing"
	"time"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("p50<1ms, p99<50ms,p999<250ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []Objective{
		{0.50, time.Millisecond},
		{0.99, 50 * time.Millisecond},
		{0.999, 250 * time.Millisecond},
	}
	if len(objs) != len(want) {
		t.Fatalf("got %d objectives", len(objs))
	}
	for i, o := range objs {
		if o != want[i] {
			t.Fatalf("objective %d: got %+v want %+v", i, o, want[i])
		}
	}
	if objs[2].Name() != "p999" || objs[0].String() != "p50<1ms" {
		t.Fatalf("rendering: %q %q", objs[2].Name(), objs[0].String())
	}
	for _, bad := range []string{"", "p99", "q99<1ms", "p99<", "p99<-5ms", "p0<1ms", "p100<1ms", "99<1ms"} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Fatalf("ParseObjectives(%q) should fail", bad)
		}
	}
}

func TestTrackerVerdicts(t *testing.T) {
	objs, _ := ParseObjectives("p99<10ms")
	tr := NewTracker(objs, nil)
	for i := 0; i < 1000; i++ {
		tr.Observe("fast", time.Millisecond)
		tr.Observe("slow", 20*time.Millisecond)
	}
	rep := tr.Report()
	if rep.OK {
		t.Fatal("report should fail overall")
	}
	if len(rep.Rows) != 2 || rep.Rows[0].Series != "fast" || rep.Rows[1].Series != "slow" {
		t.Fatalf("rows: %+v", rep.Rows)
	}
	if !rep.Rows[0].OK || rep.Rows[1].OK {
		t.Fatalf("verdicts: fast=%v slow=%v", rep.Rows[0].OK, rep.Rows[1].OK)
	}
	if rep.Rows[0].Count != 1000 || rep.Rows[0].P99 < time.Millisecond {
		t.Fatalf("fast row: %+v", rep.Rows[0])
	}
	var sb strings.Builder
	rep.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"series", "p99<10ms", "PASS", "FAIL", "fast", "slow"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTrackerBudgetBurn(t *testing.T) {
	objs, _ := ParseObjectives("p99<1s")
	budget := &BudgetPolicy{Threshold: 5 * time.Millisecond, Budget: 0.01, Window: time.Minute}
	tr := NewTracker(objs, budget)
	// 50% of observations breach a 1% budget → burn rate 50x → row fails
	// even though the latency objective passes.
	for i := 0; i < 200; i++ {
		d := time.Millisecond
		if i%2 == 0 {
			d = 10 * time.Millisecond
		}
		tr.Observe("e2e", d)
	}
	rep := tr.Report()
	row := rep.Rows[0]
	if row.Verdicts[0].OK != true {
		t.Fatal("latency objective should pass")
	}
	if row.BurnRate < 10 {
		t.Fatalf("burn rate %v, want ~50", row.BurnRate)
	}
	if row.Breaches != 100 {
		t.Fatalf("breaches=%d", row.Breaches)
	}
	if row.OK || rep.OK {
		t.Fatal("budget burn should fail the row")
	}
}
