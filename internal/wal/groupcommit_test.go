package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vt"
)

// gatedFile wraps the log's file so a test can stall a Sync (to park
// appenders behind an in-flight commit) or make Syncs fail.
type gatedFile struct {
	logFile
	gate     chan struct{} // when non-nil, the next Sync blocks until it is closed
	entered  chan struct{} // closed when that Sync has been entered
	failSync atomic.Int32  // this many upcoming Syncs fail
}

var errInjectedSync = errors.New("injected sync failure")

func (g *gatedFile) Sync() error {
	if gate := g.gate; gate != nil {
		g.gate = nil
		close(g.entered)
		<-gate
	}
	if g.failSync.Load() > 0 {
		g.failSync.Add(-1)
		return errInjectedSync
	}
	return g.logFile.Sync()
}

// gate installs a gatedFile whose next Sync stalls, and returns it with
// the channel that releases the stall.
func gate(l *FileLog) (*gatedFile, chan struct{}) {
	release := make(chan struct{})
	g := &gatedFile{logFile: l.f, gate: release, entered: make(chan struct{})}
	l.f = g
	return g, release
}

func (l *FileLog) pendingLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending == nil {
		return 0
	}
	return len(l.pending.recs)
}

// waitPending blocks until n appenders are queued in the pending batch.
func waitPending(t *testing.T, l *FileLog, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.pendingLen() != n {
		if time.Now().After(deadline) {
			t.Fatalf("pending batch holds %d records, want %d", l.pendingLen(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// appendAsync appends source's record 1 from a new goroutine and returns
// the channel its result arrives on.
func appendAsync(l *FileLog, source string) chan error {
	ch := make(chan error, 1)
	go func() { ch <- l.AppendInput(InputRecord{Source: source, Seq: 1, Payload: source}) }()
	return ch
}

func openTemp(t *testing.T) (*FileLog, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

// parkTwo stalls a commit of source "lead" seq 1 inside Sync and parks
// appends of a#1 and b#1 in the batch behind it. It returns the release
// channel, and a channel per append carrying its result.
func parkTwo(t *testing.T, l *FileLog) (g *gatedFile, release chan struct{}, lead, a, b chan error) {
	t.Helper()
	g, release = gate(l)
	lead = appendAsync(l, "lead")
	<-g.entered
	a, b = appendAsync(l, "a"), appendAsync(l, "b")
	waitPending(t, l, 2)
	return g, release, lead, a, b
}

func wantInputs(t *testing.T, l Log, source string, want int) {
	t.Helper()
	recs, err := l.Inputs(source, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != want {
		t.Fatalf("source %q has %d records, want %d", source, len(recs), want)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("source %q record %d has seq %d: not in order", source, i, r.Seq)
		}
	}
}

// TestGroupCommitConcurrentAppenders: every record of N concurrent
// closed-loop appenders is durable and in per-source order after reopen,
// and the observer shows batching exactly when there is someone to batch
// with.
func TestGroupCommitConcurrentAppenders(t *testing.T) {
	const perSource = 300
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			l, path := openTemp(t)
			var records, fsyncs atomic.Int64
			l.SetObserver(func(st BatchStats) {
				records.Add(int64(st.Inputs))
				fsyncs.Add(1)
			})
			var wg sync.WaitGroup
			for s := 0; s < n; s++ {
				wg.Add(1)
				go func(source string) {
					defer wg.Done()
					for seq := uint64(1); seq <= perSource; seq++ {
						if err := l.AppendInput(InputRecord{Source: source, Seq: seq, VT: vt.Time(seq), Payload: int(seq)}); err != nil {
							t.Error(err)
							return
						}
					}
				}(fmt.Sprintf("s%d", s))
			}
			wg.Wait()
			if got := records.Load(); got != int64(n*perSource) {
				t.Fatalf("observer saw %d records, want %d", got, n*perSource)
			}
			switch f := fsyncs.Load(); {
			case n == 1 && f != perSource:
				t.Errorf("lone appender: %d fsyncs for %d records, want one each", f, perSource)
			case n > 1 && f >= int64(n*perSource):
				t.Errorf("%d appenders: %d fsyncs for %d records, want fewer", n, f, n*perSource)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenFileLog(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.TruncatedBytes(); got != 0 {
				t.Errorf("reopen truncated %d bytes of a cleanly closed log", got)
			}
			for s := 0; s < n; s++ {
				wantInputs(t, r, fmt.Sprintf("s%d", s), perSource)
			}
		})
	}
}

// TestGroupCommitTornBatch: a tear under a batch of two fails both
// appenders, indexes neither, leaves both sequence numbers retryable, and
// a reopen of the torn file truncates to the pre-batch prefix.
func TestGroupCommitTornBatch(t *testing.T) {
	l, path := openTemp(t)
	defer l.Close()
	_, release, lead, a, b := parkTwo(t, l)
	l.ArmShortWrite()
	close(release)
	if err := <-lead; err != nil {
		t.Fatalf("commit ahead of the torn batch: %v", err)
	}
	for _, ch := range []chan error{a, b} {
		if err := <-ch; !errors.Is(err, ErrShortWrite) {
			t.Fatalf("appender of the torn batch got %v, want ErrShortWrite", err)
		}
	}
	wantInputs(t, l, "a", 0)
	wantInputs(t, l, "b", 0)

	// The file as a crash right now would leave it: the tear is on disk.
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(t.TempDir(), "crashed.log")
	if err := os.WriteFile(crashed, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileLog(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.TruncatedBytes(); got <= 0 {
		t.Errorf("reopen of the torn file truncated %d bytes, want > 0", got)
	}
	wantInputs(t, r, "lead", 1)
	wantInputs(t, r, "a", 0)
	wantInputs(t, r, "b", 0)

	// Both sequence numbers retry cleanly in the live log, and the retry
	// heals the tear.
	for _, s := range []string{"a", "b"} {
		if err := l.AppendInput(InputRecord{Source: s, Seq: 1, Payload: s}); err != nil {
			t.Fatalf("retry of %s#1: %v", s, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	healed, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	if got := healed.TruncatedBytes(); got != 0 {
		t.Errorf("healed log still had %d torn bytes", got)
	}
	for _, s := range []string{"lead", "a", "b"} {
		wantInputs(t, healed, s, 1)
	}
}

// TestGroupCommitSyncFailure: a failed fsync fails the whole batch, rewinds
// the file to the pre-batch offset and leaves every record retryable.
func TestGroupCommitSyncFailure(t *testing.T) {
	l, path := openTemp(t)
	defer l.Close()
	g, release, lead, a, b := parkTwo(t, l)
	g.failSync.Store(2) // the stalled commit's, then the batch of two's
	close(release)
	for _, ch := range []chan error{lead, a, b} {
		if err := <-ch; !errors.Is(err, errInjectedSync) {
			t.Fatalf("append under a failing fsync got %v", err)
		}
	}
	for _, s := range []string{"lead", "a", "b"} {
		wantInputs(t, l, s, 0)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() != 0 {
		t.Fatalf("failed batches left %d bytes on disk, want a rewind to 0", fi.Size())
	}
	for _, s := range []string{"lead", "a", "b"} {
		if err := l.AppendInput(InputRecord{Source: s, Seq: 1, Payload: s}); err != nil {
			t.Fatalf("retry of %s#1: %v", s, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.TruncatedBytes(); got != 0 {
		t.Errorf("reopen truncated %d bytes", got)
	}
	for _, s := range []string{"lead", "a", "b"} {
		wantInputs(t, r, s, 1)
	}
}

// TestGroupCommitFaultDurableOnReturn: a determinism fault appended while
// inputs stream through the same log is on disk by the time AppendFault
// returns — a copy of the file taken at that instant replays it.
func TestGroupCommitFaultDurableOnReturn(t *testing.T) {
	l, path := openTemp(t)
	defer l.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range []string{"a", "b"} {
		wg.Add(1)
		go func(source string) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := l.AppendInput(InputRecord{Source: source, Seq: seq, Payload: int(seq)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	for i := 1; i <= 20; i++ {
		comp := fmt.Sprintf("c%d", i)
		if err := l.AppendFault(FaultRecord{Component: comp}); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copyPath := filepath.Join(t.TempDir(), "snap.log")
		if err := os.WriteFile(copyPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		mem, _, err := ScanFile(copyPath)
		if err != nil {
			t.Fatal(err)
		}
		if faults, _ := mem.Faults(comp); len(faults) != 1 {
			t.Fatalf("fault %s returned but a copy of the file holds %d of it", comp, len(faults))
		}
	}
	close(stop)
	wg.Wait()
}

// TestGroupCommitCloseReleasesParked: Close fails the appenders still
// queued with errLogClosed, lets the in-flight commit finish, and returns.
func TestGroupCommitCloseReleasesParked(t *testing.T) {
	l, path := openTemp(t)
	_, release, lead, a, b := parkTwo(t, l)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	for _, ch := range []chan error{a, b} {
		select {
		case err := <-ch:
			if !errors.Is(err, errLogClosed) {
				t.Fatalf("queued appender got %v, want errLogClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued appender still parked after Close")
		}
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a commit was in flight", err)
	default:
	}
	close(release)
	if err := <-lead; err != nil {
		t.Fatalf("in-flight commit: %v", err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked")
	}
	r, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantInputs(t, r, "lead", 1)
	wantInputs(t, r, "a", 0)
}

// TestGroupCommitQueuedSeqValidated: a sequence number is checked against
// records still queued, not just the index, so concurrent appends of one
// source cannot put a regressing sequence on disk.
func TestGroupCommitQueuedSeqValidated(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	_, release, lead, a, b := parkTwo(t, l)
	if err := l.AppendInput(InputRecord{Source: "a", Seq: 1}); err == nil {
		t.Error("duplicate of a queued sequence number accepted")
	}
	if err := l.AppendInput(InputRecord{Source: "lead", Seq: 1}); err == nil {
		t.Error("duplicate of an in-flight sequence number accepted")
	}
	close(release)
	for _, ch := range []chan error{lead, a, b} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoneAppenderLatency: with nobody to batch with, an append costs a
// write and an fsync and nothing else — no gather wait, no goroutine hop.
func TestLoneAppenderLatency(t *testing.T) {
	dir := t.TempDir()
	const n = 200
	median := func(durs []time.Duration) time.Duration {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return durs[len(durs)/2]
	}
	payload := bytes.Repeat([]byte{7}, 16)
	l, err := OpenFileLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	probe, err := os.Create(filepath.Join(dir, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	frame := make([]byte, 64)
	// Interleave the two so that a drifting disk moves both medians.
	appends, raws := make([]time.Duration, n), make([]time.Duration, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := probe.WriteAt(frame, int64(i*len(frame))); err != nil {
			t.Fatal(err)
		}
		if err := probe.Sync(); err != nil {
			t.Fatal(err)
		}
		raws[i] = time.Since(t0)
		t0 = time.Now()
		if err := l.AppendInput(InputRecord{Source: "s", Seq: uint64(i + 1), VT: vt.Time(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
		appends[i] = time.Since(t0)
	}
	raw, got := median(raws), median(appends)
	t.Logf("append p50 %v, raw write+fsync p50 %v", got, raw)
	if raw < 20*time.Microsecond {
		t.Skipf("raw write+fsync p50 %v: no disk behind %s, the ratio would compare two noise floors", raw, dir)
	}
	if got > raw+raw/4 {
		t.Errorf("lone append p50 %v exceeds 1.25x the raw write+fsync p50 %v", got, raw)
	}
}

// TestCompactThenAppend: after compaction the tracked offset is the new
// file's size, so appends extend the compacted file and survive a reopen.
func TestCompactThenAppend(t *testing.T) {
	l, path := openTemp(t)
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: seq, Payload: int(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TrimInputs("s", 8); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(11); seq <= 13; seq++ {
		if err := l.AppendInput(InputRecord{Source: "s", Seq: seq, Payload: int(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.TruncatedBytes(); got != 0 {
		t.Errorf("reopen truncated %d bytes after compact + append", got)
	}
	recs, _ := r.Inputs("s", 0)
	if len(recs) != 5 || recs[0].Seq != 9 || recs[4].Seq != 13 {
		t.Fatalf("after compact + append + reopen: %+v, want seqs 9..13", recs)
	}
}

// TestCompactFailedRenameKeepsLog: when the swap cannot happen the log keeps
// its file and stays usable, and the temporary file is removed.
func TestCompactFailedRenameKeepsLog(t *testing.T) {
	l, path := openTemp(t)
	if err := l.AppendInput(InputRecord{Source: "s", Seq: 1, Payload: "before"}); err != nil {
		t.Fatal(err)
	}
	// Renaming a file over a non-empty directory fails.
	blocked := filepath.Join(filepath.Dir(path), "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	l.path = blocked
	if err := l.Compact(); err == nil {
		t.Fatal("compact over a directory succeeded")
	}
	l.path = path
	if _, err := os.Stat(blocked + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed compact left its temporary file behind (stat: %v)", err)
	}
	if err := l.AppendInput(InputRecord{Source: "s", Seq: 2, Payload: "after"}); err != nil {
		t.Fatalf("append after a failed compact: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantInputs(t, r, "s", 2)
}

// armGather puts the log in the state four contended commits would: the
// next batch is held open for `want` records, for up to budget.
func armGather(l *FileLog, want int, budget time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.widths {
		l.widths[i] = want
	}
	l.gather = want
	l.syncNs = int64(4 * budget)
}

// TestGatherHold pins the three ways a held batch ends: the arrival that
// completes it commits it at once, the budget runs out and the holder
// commits what it has (and gathering turns off), or Close fails it.
func TestGatherHold(t *testing.T) {
	gatherOf := func(l *FileLog) int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.gather
	}

	t.Run("completing arrival commits", func(t *testing.T) {
		l, _ := openTemp(t)
		defer l.Close()
		var batches []BatchStats
		l.SetObserver(func(st BatchStats) { batches = append(batches, st) })
		armGather(l, 2, time.Minute)
		a := appendAsync(l, "a")
		waitPending(t, l, 1)
		b := appendAsync(l, "b")
		for _, ch := range []chan error{a, b} {
			select {
			case err := <-ch:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("held batch was not committed by the arrival that completed it")
			}
		}
		if len(batches) != 1 || batches[0].Inputs != 2 {
			t.Errorf("batches = %+v, want one of two inputs", batches)
		}
		if g := gatherOf(l); g != 2 {
			t.Errorf("gather after a hold that filled in budget = %d, want 2", g)
		}
	})

	t.Run("budget expiry commits what is there", func(t *testing.T) {
		l, _ := openTemp(t)
		defer l.Close()
		const budget = 20 * time.Millisecond
		armGather(l, 2, budget)
		t0 := time.Now()
		if err := l.AppendInput(InputRecord{Source: "a", Seq: 1}); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(t0); took < budget {
			t.Errorf("lone appender returned after %v, before the %v hold ran out", took, budget)
		}
		if g := gatherOf(l); g != 1 {
			t.Errorf("gather after a hold nobody joined = %d, want 1", g)
		}
		wantInputs(t, l, "a", 1)
	})

	t.Run("close fails the held batch", func(t *testing.T) {
		l, _ := openTemp(t)
		armGather(l, 2, time.Minute)
		a := appendAsync(l, "a")
		waitPending(t, l, 1)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-a:
			if !errors.Is(err, errLogClosed) {
				t.Fatalf("holder got %v, want errLogClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("holder still parked after Close")
		}
	})
}
