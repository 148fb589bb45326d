//go:build linux

package transport

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/vt"
)

func processCPU(tb testing.TB) time.Duration {
	tb.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestFlushLoopIdleCPU pins down the flusher's idle cost: between kicks it
// must park on its kick channel, not poll for pending frames. An earlier
// flusher spun through runtime.Gosched() while it waited, which measured
// 96.3ms of process CPU across a 100.1ms wait (~96%), against ~0.6ms for a
// parked one; the generous wall/2 bound separates the two regimes by two
// orders of magnitude.
func TestFlushLoopIdleCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	const idle = 100 * time.Millisecond
	client, server, cleanup := tcpPair(t, TCP{})
	defer cleanup()

	const n = 10
	recvd := make(chan struct{}, n)
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				return
			}
			recvd <- struct{}{}
		}
	}()
	// A burst sent while the writer is busy goes through the flusher.
	client.writeMu.Lock()
	for i := 1; i <= n; i++ {
		if err := client.Send(msg.NewData(1, uint64(i), vt.Time(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	client.writeMu.Unlock()
	for i := 0; i < n; i++ {
		select {
		case <-recvd:
		case <-time.After(10 * time.Second):
			t.Fatal("the flusher never wrote the burst")
		}
	}

	start := time.Now()
	cpu0 := processCPU(t)
	time.Sleep(idle)
	wall := time.Since(start)
	cpuSpent := processCPU(t) - cpu0
	// Generous bound: the whole process (test goroutines included) must
	// burn far less CPU than the idle stretch it waited out.
	if limit := wall / 2; cpuSpent > limit {
		t.Fatalf("process burned %v CPU across %v idle (limit %v) — the flusher is spinning",
			cpuSpent, wall, limit)
	}
	t.Logf("idle flusher: wall=%v, process cpu=%v", wall, cpuSpent)
}
