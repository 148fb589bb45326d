package tart_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	tart "repro"
)

// TestFlightRecorderDirIsMade checks that Launch makes a missing flight
// dump directory, so the dump Stop writes lands there, and that Launch
// fails when the directory cannot be made: every dump is written where an
// error is ignored, so nothing else would report it.
func TestFlightRecorderDirIsMade(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "missing", "nested")
	c, err := tart.Launch(fig1App(), tart.WithFlightRecorder(dir))
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if _, err := os.Stat(filepath.Join(dir, "main-flight.jsonl")); err != nil {
		t.Errorf("no flight dump after Stop: %v", err)
	}

	file := filepath.Join(base, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := tart.Launch(fig1App(), tart.WithFlightRecorder(filepath.Join(file, "sub"))); err == nil {
		c.Stop()
		t.Error("Launch with a flight dump dir under a regular file succeeded")
	}
}

// TestFailedLaunchClosesWhatItOpened fails a durable two-engine launch at
// its second engine, whose state path is a regular file, after the first
// engine has opened its file log: the failed Launch must leave the process
// holding no more descriptors than before it.
func TestFailedLaunchClosesWhatItOpened(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts the entries of /proc/self/fd")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "B"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	if c, err := tart.Launch(fig1App("A", "B"), tart.WithDurableStore(dir)); err == nil {
		c.Stop()
		t.Fatal("Launch over a state path that is a regular file succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "A", "wal.log")); err != nil {
		t.Fatalf("engine A did not open its log before B failed: %v", err)
	}
	if after := openFDs(t); after > before {
		t.Errorf("failed Launch left %d descriptors open (%d before, %d after)", after-before, before, after)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}
