package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/vt"
)

func testLogBehaviour(t *testing.T, mk func(t *testing.T) Log) {
	t.Helper()
	t.Run("inputs append and query", func(t *testing.T) {
		l := mk(t)
		defer l.Close()
		for i := uint64(1); i <= 5; i++ {
			if err := l.AppendInput(InputRecord{Source: "s", Seq: i, VT: vt.Time(1000 * i), Payload: int(i)}); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := l.Inputs("s", 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
			t.Errorf("Inputs(3) = %+v", recs)
		}
		all, _ := l.Inputs("s", 0)
		if len(all) != 5 {
			t.Errorf("Inputs(0) = %d records", len(all))
		}
		none, _ := l.Inputs("other", 0)
		if len(none) != 0 {
			t.Errorf("unknown source returned %d records", len(none))
		}
	})
	t.Run("non-increasing seq rejected", func(t *testing.T) {
		l := mk(t)
		defer l.Close()
		if err := l.AppendInput(InputRecord{Source: "s", Seq: 2}); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendInput(InputRecord{Source: "s", Seq: 2}); err == nil {
			t.Error("duplicate seq accepted")
		}
		if err := l.AppendInput(InputRecord{Source: "s", Seq: 1}); err == nil {
			t.Error("regressing seq accepted")
		}
	})
	t.Run("faults per component", func(t *testing.T) {
		l := mk(t)
		defer l.Close()
		f1 := FaultRecord{Component: "a", Fault: estimator.Fault{EffectiveVT: 100, Coeffs: []float64{1}}}
		f2 := FaultRecord{Component: "b", Fault: estimator.Fault{EffectiveVT: 200, Coeffs: []float64{2}}}
		f3 := FaultRecord{Component: "a", Fault: estimator.Fault{EffectiveVT: 300, Coeffs: []float64{3}}}
		for _, f := range []FaultRecord{f1, f2, f3} {
			if err := l.AppendFault(f); err != nil {
				t.Fatal(err)
			}
		}
		got, err := l.Faults("a")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Fault.EffectiveVT != 100 || got[1].Fault.EffectiveVT != 300 {
			t.Errorf("Faults(a) = %+v", got)
		}
	})
	t.Run("trim", func(t *testing.T) {
		l := mk(t)
		defer l.Close()
		for i := uint64(1); i <= 5; i++ {
			if err := l.AppendInput(InputRecord{Source: "s", Seq: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.TrimInputs("s", 3); err != nil {
			t.Fatal(err)
		}
		recs, _ := l.Inputs("s", 0)
		if len(recs) != 2 || recs[0].Seq != 4 {
			t.Errorf("after trim: %+v", recs)
		}
	})
	t.Run("closed log rejects appends", func(t *testing.T) {
		l := mk(t)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendInput(InputRecord{Source: "s", Seq: 1}); err == nil {
			t.Error("append after close succeeded")
		}
	})
}

func TestMemLog(t *testing.T) {
	testLogBehaviour(t, func(t *testing.T) Log { return NewMemLog() })
}

func TestFileLog(t *testing.T) {
	testLogBehaviour(t, func(t *testing.T) Log {
		l, err := OpenFileLog(filepath.Join(t.TempDir(), "test.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return l
	})
}

func TestFileLogRecoveryAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: i, Payload: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendFault(FaultRecord{Component: "c", Fault: estimator.Fault{EffectiveVT: 42, Coeffs: []float64{61827}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// First reopen: everything must be there; append more.
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := l2.Inputs("s", 0)
	if len(recs) != 3 {
		t.Fatalf("after reopen: %d inputs, want 3", len(recs))
	}
	faults, _ := l2.Faults("c")
	if len(faults) != 1 || faults[0].Fault.Coeffs[0] != 61827 {
		t.Fatalf("after reopen: faults = %+v", faults)
	}
	if err := l2.AppendInput(InputRecord{Source: "s", Seq: 4}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second reopen: records appended after a reopen must survive too
	// (regression test for gob-stream framing across encoder restarts).
	l3, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	recs, _ = l3.Inputs("s", 0)
	if len(recs) != 4 {
		t.Errorf("after second reopen: %d inputs, want 4", len(recs))
	}
}

func TestFileLogTornFinalRecordTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a crash mid-append: append a garbage half-frame.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tornSize, _ := os.Stat(path)

	// Recovery truncates the torn tail, so the next append extends the good
	// prefix instead of being orphaned behind garbage.
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := l2.Inputs("s", 0)
	if len(recs) != 3 {
		t.Errorf("torn log recovered %d records, want 3", len(recs))
	}
	if got := l2.TruncatedBytes(); got != 6 {
		t.Errorf("TruncatedBytes = %d, want 6", got)
	}
	if fi, _ := os.Stat(path); fi.Size() != tornSize.Size()-6 {
		t.Errorf("file size %d after recovery, want %d", fi.Size(), tornSize.Size()-6)
	}
	if err := l2.AppendInput(InputRecord{Source: "s", Seq: 4}); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	// Every record — including the post-recovery append — survives the next
	// open with nothing lost and nothing left to truncate.
	l3, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	recs, _ = l3.Inputs("s", 0)
	if len(recs) != 4 {
		t.Errorf("after truncate+append: %d records, want 4", len(recs))
	}
	if got := l3.TruncatedBytes(); got != 0 {
		t.Errorf("clean reopen truncated %d bytes", got)
	}
}

func TestFileLogCorruptFrameDetectedByCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: i, Payload: "payload"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip one byte inside the last frame's body: the frame still has a
	// plausible length prefix and may even decode, but its CRC no longer
	// matches, so recovery must stop before it rather than replay it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(data) / 3
	data[len(data)-frame/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := l2.Inputs("s", 0)
	if len(recs) != 2 {
		t.Fatalf("recovered %d records past a corrupt frame, want 2", len(recs))
	}
	if got := l2.TruncatedBytes(); got != int64(frame) {
		t.Errorf("TruncatedBytes = %d, want %d (one frame)", got, frame)
	}
	// The log heals by re-appending over the truncated corruption.
	if err := l2.AppendInput(InputRecord{Source: "s", Seq: 3, Payload: "payload"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	recs, _ = l3.Inputs("s", 0)
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Errorf("after heal: %+v", recs)
	}
}

func TestInjectorFailsArmedAppends(t *testing.T) {
	inj := NewInjector()
	log := inj.Wrap("node", NewMemLog())
	if err := log.AppendInput(InputRecord{Source: "s", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	inj.FailAppends("node", 2)
	inj.FailAppends("other", 1) // other engine's budget must not leak
	for i := 0; i < 2; i++ {
		if err := log.AppendInput(InputRecord{Source: "s", Seq: 2}); !errors.Is(err, ErrInjected) {
			t.Fatalf("armed append %d: err = %v, want ErrInjected", i, err)
		}
	}
	// Budget exhausted: the retry lands with the same sequence number.
	if err := log.AppendInput(InputRecord{Source: "s", Seq: 2}); err != nil {
		t.Fatalf("append after budget drained: %v", err)
	}
	recs, _ := log.Inputs("s", 0)
	if len(recs) != 2 {
		t.Errorf("log holds %d records, want 2", len(recs))
	}
	if got := inj.Injected(); got != 2 {
		t.Errorf("Injected = %d, want 2", got)
	}
}

func TestFileLogCompactReclaimsTrimmed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 10_000)
	for i := uint64(1); i <= 20; i++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: i, Payload: big}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.Stat(path)
	if err := l.TrimInputs("s", 18); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size()/2 {
		t.Errorf("compact did not reclaim space: %d -> %d bytes", before.Size(), after.Size())
	}
	recs, _ := l.Inputs("s", 0)
	if len(recs) != 2 || recs[0].Seq != 19 {
		t.Errorf("after compact: %+v", recs)
	}
	l.Close()

	// Compacted file must be readable.
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, _ = l2.Inputs("s", 0)
	if len(recs) != 2 {
		t.Errorf("compacted file reload: %d records, want 2", len(recs))
	}
}

// TestInputsBelowTrimIsAnError: a replay that starts at or below what was
// trimmed cannot be complete, and the log says so instead of returning the
// surviving suffix — also when every record is gone, after a reopen, and
// after a compaction dropped the trim entries' records.
func TestInputsBelowTrimIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trim.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: i, Payload: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TrimInputs("s", 10); err != nil { // everything
		t.Fatal(err)
	}
	check := func(l Log, when string) {
		t.Helper()
		if _, err := l.Inputs("s", 6); err == nil || !strings.Contains(err.Error(), `"s"`) || !strings.Contains(err.Error(), "6..10") {
			t.Errorf("%s: Inputs from 6 after a trim through 10: err = %v, want one naming the source and 6..10", when, err)
		}
		if recs, err := l.Inputs("s", 11); err != nil || len(recs) != 0 {
			t.Errorf("%s: Inputs from 11 = %d records, %v; want none and no error", when, len(recs), err)
		}
		if _, err := l.Inputs("s", 0); err != nil {
			t.Errorf("%s: listing what is retained: %v", when, err)
		}
		if _, err := l.Inputs("other", 1); err != nil {
			t.Errorf("%s: an untrimmed source: %v", when, err)
		}
	}
	check(l, "live")
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	check(l, "compacted")
	l.Close()
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2, "reopened")
}

func TestFileLogOpenBadPath(t *testing.T) {
	if _, err := OpenFileLog("/nonexistent-dir-zzz/x.wal"); err == nil {
		t.Error("open in nonexistent directory succeeded")
	}
}

func TestMemLogTrimBeyondAll(t *testing.T) {
	l := NewMemLog()
	for i := uint64(1); i <= 3; i++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TrimInputs("s", 99); err != nil {
		t.Fatal(err)
	}
	recs, _ := l.Inputs("s", 0)
	if len(recs) != 0 {
		t.Errorf("trim-all left %d records", len(recs))
	}
	// Appends continue with increasing sequence numbers after a full trim.
	if err := l.AppendInput(InputRecord{Source: "s", Seq: 4}); err != nil {
		t.Errorf("append after full trim: %v", err)
	}
	// Trimming an unknown source is a no-op.
	if err := l.TrimInputs("ghost", 10); err != nil {
		t.Errorf("trim of unknown source: %v", err)
	}
}

func TestFileLogInterleavedSources(t *testing.T) {
	path := filepath.Join(t.TempDir(), "multi.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := l.AppendInput(InputRecord{Source: "a", Seq: i, Payload: int(i)}); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendInput(InputRecord{Source: "b", Seq: i, Payload: int(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, src := range []string{"a", "b"} {
		recs, _ := l2.Inputs(src, 0)
		if len(recs) != 5 {
			t.Errorf("source %s: %d records", src, len(recs))
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Errorf("source %s seq[%d] = %d", src, i, r.Seq)
			}
		}
	}
}

func TestFileLogTrimSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trim.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TrimInputs("s", 3); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// The trim was journaled: recovery replays it.
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, _ := l2.Inputs("s", 0)
	if len(recs) != 2 || recs[0].Seq != 4 {
		t.Errorf("after reopen: %+v", recs)
	}
}

// TestFileLogUndecodableFrameIsAnError: a frame whose CRC holds was written
// whole, so a body that does not decode is durable input the log cannot
// read, not a torn tail. Open, ScanFile and so Reopen must refuse it with
// the frame's offset and leave the file untouched.
func TestFileLogUndecodableFrameIsAnError(t *testing.T) {
	// write logs three int inputs, lets patch rewrite the second frame's
	// body, recomputes that frame's CRC and returns the path and the second
	// frame's offset.
	write := func(t *testing.T, patch func(body []byte) []byte) (string, int) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := OpenFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 3; i++ {
			if err := l.AppendInput(InputRecord{Source: "s", Seq: i, Payload: int(i)}); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frame := len(data) / 3
		body := patch(append([]byte(nil), data[frame+frameHeaderSize:2*frame]...))
		var out []byte
		out = append(out, data[:frame]...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
		out = append(out, body...)
		out = append(out, data[2*frame:]...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return path, frame
	}
	legacy := func([]byte) []byte { return []byte{0x03, 0x7f, 0x00, 0x01} }
	for _, tc := range []struct {
		name  string
		patch func([]byte) []byte
		cause string
	}{
		{"unregistered payload type", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-12:], 0xdead)
			return b
		}, "unknown payload type ID"},
		{"payload codec error", func(b []byte) []byte { return b[:len(b)-1] }, "bad int payload length"},
		{"unknown entry kind", func(b []byte) []byte { b[2] = 9; return b }, "unknown entry kind"},
		{"unknown version", func(b []byte) []byte { b[1] = 7; return b }, "unsupported entry version"},
		{"legacy gob body", legacy, "legacy entry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, off := write(t, tc.patch)
			before, _ := os.ReadFile(path)
			want := fmt.Sprintf("frame at offset %d", off)
			l, err := OpenFileLog(path)
			if err == nil {
				l.Close()
				t.Fatalf("OpenFileLog accepted an undecodable frame (truncated %d bytes)", l.TruncatedBytes())
			}
			if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.cause) {
				t.Errorf("OpenFileLog error %q, want it to name %q and %q", err, want, tc.cause)
			}
			if _, _, err := ScanFile(path); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ScanFile error %v, want one naming %q", err, want)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
				t.Errorf("a refused open changed the file: %d -> %d bytes", len(before), len(after))
			}
		})
	}
}
