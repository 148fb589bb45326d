package tart_test

import (
	"bytes"
	"net"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	tart "repro"
)

// controlPlaneOptions turns on the control-plane loop, the supervisor,
// and span tracing of every origin.
func controlPlaneOptions() []tart.ClusterOption {
	return []tart.ClusterOption{
		tart.WithSpanTracing(1),
		tart.WithSupervisor(tart.SupervisorConfig{SuspectAfter: time.Hour, PollEvery: 5 * time.Millisecond}),
	}
}

// controlPlaneStacks returns the goroutines of the goroutine profile that
// run cluster control-plane code.
func controlPlaneStacks(t *testing.T) []string {
	t.Helper()
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, g := range strings.Split(b.String(), "\n\n") {
		for _, frame := range []string{"repro.(*Cluster)", "repro.(*supervisor)"} {
			if strings.Contains(g, frame) {
				found = append(found, g)
				break
			}
		}
	}
	return found
}

// requireControlPlaneGone waits briefly for exiting goroutines to unwind,
// then fails if any control-plane goroutine is still alive.
func requireControlPlaneGone(t *testing.T, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		stacks := controlPlaneStacks(t)
		if len(stacks) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d control-plane goroutines still running:\n%s", when, len(stacks), strings.Join(stacks, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopStopsControlPlane launches with the control-plane loop on and
// checks that Stop ends it, leaves every span readable, and is a
// no-op when repeated — and that a Launch that fails halfway leaves no loop
// behind either.
func TestStopStopsControlPlane(t *testing.T) {
	app := tart.NewApp()
	app.Register("echo", &auditEcho{}, tart.WithConstantCost(time.Microsecond))
	app.SourceInto("in", "echo", "in")
	app.SinkFrom("out", "echo", "out")
	app.PlaceAll("main")
	cluster, err := tart.Launch(app, controlPlaneOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := cluster.Source("in")
	if err != nil {
		t.Fatal(err)
	}
	outputs := make(chan tart.Output, 100)
	if err := cluster.Sink("out", func(o tart.Output) { outputs <- o }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := src.Emit(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		select {
		case <-outputs:
		case <-time.After(5 * time.Second):
			t.Fatal("outputs did not arrive")
		}
	}

	cluster.Stop()
	requireControlPlaneGone(t, "after Stop")
	spans, err := cluster.Spans("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans retained after Stop")
	}
	cluster.Stop() // a second Stop is a no-op

	// A Launch that fails after starting one engine stops it again itself
	// and never starts the control plane. The squatter on the second
	// engine's address holds every dial open and never answers, so if the
	// first engine started, its dialer waits on a handshake Stop must bound.
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	held := make(chan net.Conn, 16) // room for the failed Launch's dial and any redial
	go func() {
		for {
			c, err := busy.Accept()
			if err != nil {
				return
			}
			held <- c
		}
	}()
	defer func() {
		for len(held) > 0 {
			(<-held).Close()
		}
	}()
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	freeAddr := free.Addr().String()
	free.Close()
	two := tart.NewApp()
	two.Register("a", &auditEcho{}, tart.WithConstantCost(time.Microsecond))
	two.Register("b", &auditEcho{}, tart.WithConstantCost(time.Microsecond))
	two.SourceInto("in", "a", "in")
	two.Connect("a", "out", "b", "in")
	two.SinkFrom("out", "b", "out")
	two.Place("a", "ea")
	two.Place("b", "eb")
	opts := append(controlPlaneOptions(),
		tart.WithTCP(map[string]string{"ea": freeAddr, "eb": busy.Addr().String()}))
	if _, err := tart.Launch(two, opts...); err == nil {
		t.Fatal("Launch on an address already in use succeeded")
	}
	requireControlPlaneGone(t, "after a failed Launch")
}
