package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// TestDumpWALLeavesTornLogUntouched: the dump reports a torn tail and does
// not repair it — the file is byte-identical afterwards. Against a live
// engine's log the "tear" may be a batch still being written.
func TestDumpWALLeavesTornLogUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInput(wal.InputRecord{Source: "in", Seq: 1, VT: 10, Payload: "kept"}); err != nil {
		t.Fatal(err)
	}
	l.ArmShortWrite()
	if err := l.AppendInput(wal.InputRecord{Source: "in", Seq: 2, VT: 20, Payload: "torn"}); err == nil {
		t.Fatal("armed short write succeeded")
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := dumpWAL(&out, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "payload=kept") || strings.Contains(out.String(), "payload=torn") {
		t.Errorf("dump should show the intact record only:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "torn tail: ") || !strings.Contains(out.String(), "(not repaired)") {
		t.Errorf("dump does not report the torn tail:\n%s", out.String())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("dump changed the log: %d bytes before, %d after", len(before), len(after))
	}

	absent := filepath.Join(t.TempDir(), "absent.log")
	if err := dumpWAL(&out, absent); err == nil {
		t.Error("dump of a missing log succeeded")
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Errorf("dump created the missing log (stat: %v)", err)
	}
}

func TestWALStatusRow(t *testing.T) {
	samples, err := parsePrometheus(strings.NewReader(`
tart_wal_records_total{engine="e0",kind="input"} 1000
tart_wal_records_total{engine="e0",kind="fault"} 2
tart_wal_records_total{engine="e0",kind="trim"} 8
tart_wal_fsyncs_total{engine="e0"} 505
tart_wal_fsync_seconds_sum{engine="e0"} 0.101
tart_wal_fsync_seconds_count{engine="e0"} 505
`))
	if err != nil {
		t.Fatal(err)
	}
	want := "  wal: 1010 records durable (1000 inputs, 2 faults, 8 trims) in 505 fsyncs: 0.50 fsyncs/record, mean fsync 200µs"
	if got := walStatusRow(samples); got != want {
		t.Errorf("row = %q\nwant  %q", got, want)
	}
	if got := walStatusRow(nil); !strings.Contains(got, "no file-log commits") {
		t.Errorf("row without a file log = %q", got)
	}
}

func TestCkptStatusRow(t *testing.T) {
	samples, err := parsePrometheus(strings.NewReader(`
tart_checkpoints_total{engine="e0",kind="full"} 2
tart_checkpoints_total{engine="e0",kind="delta"} 18
tart_checkpoint_bytes_sum{engine="e0",kind="full"} 8000000
tart_checkpoint_bytes_count{engine="e0",kind="full"} 2
tart_checkpoint_bytes_sum{engine="e0",kind="delta"} 720000
tart_checkpoint_bytes_count{engine="e0",kind="delta"} 18
tart_checkpoint_hold_seconds_bucket{engine="e0",le="0.0001"} 50
tart_checkpoint_hold_seconds_bucket{engine="e0",le="0.001"} 72
tart_checkpoint_hold_seconds_bucket{engine="e0",le="0.01"} 80
tart_checkpoint_hold_seconds_bucket{engine="e0",le="+Inf"} 80
tart_checkpoint_hold_seconds_sum{engine="e0"} 0.04
tart_checkpoint_hold_seconds_count{engine="e0"} 80
tart_checkpoint_store_seconds_sum{engine="e0"} 0.25
tart_checkpoint_store_seconds_count{engine="e0"} 20
tart_ckpt_store_fsyncs_total{engine="e0"} 80
tart_checkpoint_chain_length{engine="e0"} 9
tart_checkpoint_chain_length{engine="e1"} 4
`))
	if err != nil {
		t.Fatal(err)
	}
	want := "  ckpt: 2 full (mean 4000000 B), 18 delta (mean 40000 B); loop held p50 <=100µs, max <=10ms; off-loop encode+store mean 12.5ms, 80 store fsyncs; chain 9"
	if got := ckptStatusRow(samples); got != want {
		t.Errorf("row = %q\nwant  %q", got, want)
	}
	if got := ckptStatusRow(nil); !strings.Contains(got, "no checkpoints") {
		t.Errorf("row without checkpoints = %q", got)
	}
}
