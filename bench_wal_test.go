package tart_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vt"
	"repro/internal/wal"
)

// fsyncProbe is the median of 50 64-byte write + fsync rounds in dir: the
// floor any durable append pays there.
func fsyncProbe(tb testing.TB, dir string) time.Duration {
	tb.Helper()
	f, err := os.CreateTemp(dir, "fsync-probe")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	durs := make([]time.Duration, 50)
	for i := range durs {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			tb.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			tb.Fatal(err)
		}
		durs[i] = time.Since(t0)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2]
}

// minFsyncProbe is the fsync cost below which the WAL lanes measure a page
// cache, not a disk (tmpfs, eatmydata), and are skipped.
const minFsyncProbe = 20 * time.Microsecond

// benchFileLogAppend drives b.N durable appends through one FileLog from
// `callers` closed-loop goroutines, each its own source, and reports
// records/s and fsyncs per record as the log's observer counts them.
func benchFileLogAppend(b *testing.B, callers int) {
	dir := b.TempDir()
	if probe := fsyncProbe(b, dir); probe < minFsyncProbe {
		b.Skipf("fsync probe %v in %s: no disk behind it", probe, dir)
	}
	log, err := wal.OpenFileLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	var records, fsyncs atomic.Int64
	log.SetObserver(func(st wal.BatchStats) {
		records.Add(int64(st.Inputs))
		fsyncs.Add(1)
	})
	payload := make([]byte, 16)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(source string) {
			defer wg.Done()
			for seq := uint64(1); next.Add(1) <= int64(b.N); seq++ {
				if err := log.AppendInput(wal.InputRecord{Source: source, Seq: seq, VT: vt.Time(seq), Payload: payload}); err != nil {
					b.Error(err)
					return
				}
			}
		}(fmt.Sprintf("in%d", c))
	}
	wg.Wait()
	b.StopTimer()
	if got := records.Load(); got != int64(b.N) {
		b.Fatalf("observer saw %d records, appended %d", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(fsyncs.Load())/float64(b.N), "fsyncs/record")
}

var fileLogCallers = []int{1, 2, 8}

// BenchmarkFileLogAppend is the group-commit lane: durable appends per
// second with 1, 2 and 8 concurrent callers on one log. c1 is the fsync
// floor; c2 is the two-sources-on-one-engine shape the gather step exists
// for. Baselines live in BENCH_wal.json (TestFileLogAppendGate).
func BenchmarkFileLogAppend(b *testing.B) {
	for _, c := range fileLogCallers {
		b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) { benchFileLogAppend(b, c) })
	}
}

// walBaselines mirrors BENCH_wal.json. Absolute records/s follow the
// disk, so the gate is on what group commit controls: fsyncs per record,
// and each lane's throughput relative to the lone appender's.
type walBaselines struct {
	Lanes map[string]struct {
		FsyncsPerRecord float64 `json:"fsyncs_per_record"`
		SpeedupOverC1   float64 `json:"speedup_over_c1"`
	} `json:"BenchmarkFileLogAppend"`
}

// TestFileLogAppendGate re-runs the lanes and fails if any batches worse
// (more fsyncs per record, or less speed-up over c1) than its baseline by
// more than the allowed factor. Opt-in like the transport gate:
// TART_BENCH_GATE=1, factor via TART_BENCH_GATE_FACTOR (default 1.15).
func TestFileLogAppendGate(t *testing.T) {
	if os.Getenv("TART_BENCH_GATE") == "" {
		t.Skip("set TART_BENCH_GATE=1 to enable the WAL group-commit regression gate")
	}
	if probe := fsyncProbe(t, t.TempDir()); probe < minFsyncProbe {
		t.Skipf("fsync probe %v: no disk behind the temp dir", probe)
	}
	factor := 1.15
	if s := os.Getenv("TART_BENCH_GATE_FACTOR"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f < 1 {
			t.Fatalf("bad TART_BENCH_GATE_FACTOR %q", s)
		}
		factor = f
	}
	raw, err := os.ReadFile("BENCH_wal.json")
	if err != nil {
		t.Fatal(err)
	}
	var base walBaselines
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	var c1 float64
	for _, c := range fileLogCallers {
		lane := fmt.Sprintf("c%d", c)
		want, ok := base.Lanes[lane]
		if !ok {
			t.Errorf("BENCH_wal.json has no baseline for %s", lane)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { benchFileLogAppend(b, c) })
		rate, per := res.Extra["records/s"], res.Extra["fsyncs/record"]
		if c == 1 {
			c1 = rate
		}
		speedup := rate / c1
		t.Logf("%s: %.0f records/s (%.2fx c1, baseline %.2fx), %.3f fsyncs/record (baseline %.3f)",
			lane, rate, speedup, want.SpeedupOverC1, per, want.FsyncsPerRecord)
		if per > want.FsyncsPerRecord*factor {
			t.Errorf("%s: %.3f fsyncs/record, above gate %.3f", lane, per, want.FsyncsPerRecord*factor)
		}
		if speedup < want.SpeedupOverC1/factor {
			t.Errorf("%s: %.2fx c1, below gate %.2fx", lane, speedup, want.SpeedupOverC1/factor)
		}
	}
}
