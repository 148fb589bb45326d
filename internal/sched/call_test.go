package sched

import (
	"sync"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/vt"
)

// callTopo wires client --call--> server, with an external source into the
// client and a sink out of it.
func callTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	b.AddComponent("client")
	b.AddComponent("server")
	b.AddSource("in", "client", "in")
	b.ConnectCall("client", "lookup", "server", "req")
	b.AddSink("out", "client", "out")
	b.PlaceAll("e0")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestTwoWayCall(t *testing.T) {
	tp := callTopo(t)
	f := newFabric(t, tp)

	server := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		return payload.(int) * 10, nil
	})
	client := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		before := ctx.Now()
		reply, err := ctx.Call("lookup", payload)
		if err != nil {
			return nil, err
		}
		// The handler resumed after the reply; its completion VT includes
		// the round trip, so subsequent sends must be stamped later than
		// the call request was.
		_ = before
		return nil, ctx.Send("out", reply)
	})
	f.add("client", client)
	f.add("server", server)
	f.start()
	defer f.stop()

	f.emit("in", 1000, 7)
	got := f.awaitSink(1, 5*time.Second)
	if got[0].Payload != 70 {
		t.Errorf("call reply payload = %v, want 70", got[0].Payload)
	}
	// Causality: the sink VT must be later than the request could have
	// reached the server (dequeue 1000 + client cost 100 + request delay
	// 1000 + server cost 100 + reply delay 1000 + sink delay 1000).
	if got[0].VT < 4200 {
		t.Errorf("sink VT %v too early for a full call round trip", got[0].VT)
	}
}

func TestCallSequenceOfCalls(t *testing.T) {
	tp := callTopo(t)
	f := newFabric(t, tp)
	var mu sync.Mutex
	var serverSeen []int
	server := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		mu.Lock()
		serverSeen = append(serverSeen, payload.(int))
		mu.Unlock()
		return payload.(int) + 1, nil
	})
	client := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		reply, err := ctx.Call("lookup", payload)
		if err != nil {
			return nil, err
		}
		return nil, ctx.Send("out", reply)
	})
	f.add("client", client)
	f.add("server", server)
	f.start()
	defer f.stop()

	for i := 1; i <= 4; i++ {
		f.emit("in", vt.Time(i*10_000), i)
	}
	got := f.awaitSink(4, 5*time.Second)
	for i, env := range got {
		if env.Payload != i+2 {
			t.Errorf("reply %d = %v, want %d", i, env.Payload, i+2)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range serverSeen {
		if v != i+1 {
			t.Errorf("server order = %v", serverSeen)
			break
		}
	}
}

func TestCallMisuseErrors(t *testing.T) {
	tp := callTopo(t)
	f := newFabric(t, tp)
	errs := make(chan error, 2)
	client := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		// Send on a call port and Call on a send port are both rejected.
		errs <- ctx.Send("lookup", payload)
		_, err := ctx.Call("out", payload)
		errs <- err
		return nil, nil
	})
	f.add("client", client)
	f.add("server", HandlerFunc(func(*Ctx, string, any) (any, error) { return nil, nil }))
	f.start()
	defer f.stop()

	f.emit("in", 1000, 1)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("port-kind misuse not rejected")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("handler never ran")
		}
	}
}

func TestCallUnblocksOnStop(t *testing.T) {
	tp := callTopo(t)
	f := newFabric(t, tp)
	got := make(chan error, 1)
	client := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		_, err := ctx.Call("lookup", payload)
		got <- err
		return nil, nil
	})
	c := f.add("client", client)
	f.add("server", HandlerFunc(func(*Ctx, string, any) (any, error) { return nil, nil }))
	// Deliberately do NOT start the server: the call can never be answered.
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	f.emit("in", 1000, 1)
	time.Sleep(50 * time.Millisecond)
	c.Stop()
	select {
	case err := <-got:
		if err != ErrStopped {
			t.Errorf("blocked call returned %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not unblock on Stop")
	}
}

func TestDuplicateCallReplyDropped(t *testing.T) {
	tp := callTopo(t)
	f := newFabric(t, tp)
	mm := registryMetrics()
	client := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		reply, err := ctx.Call("lookup", payload)
		if err != nil {
			return nil, err
		}
		return nil, ctx.Send("out", reply)
	})
	c := f.add("client", client, func(cfg *Config) { cfg.Metrics = mm })
	f.add("server", HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		return "ok", nil
	}))
	f.start()
	defer f.stop()

	f.emit("in", 1000, 1)
	f.awaitSink(1, 5*time.Second)

	// Replay a stale reply (e.g. duplicated by recovery): no waiter exists.
	clientComp, _ := tp.ComponentByName("client")
	replyWire := tp.Wire(clientComp.Outputs["lookup"]).Peer
	c.Deliver(msg.NewCallReply(replyWire, 1, 5000, 1, "stale"))
	if snap := mm.Snapshot(); snap.DuplicatesDropped != 1 {
		t.Errorf("stale reply not dropped: %+v", snap)
	}
}

func TestCalibrationCommitsDeterminismFault(t *testing.T) {
	tp := fig1(t)
	f := newFabric(t, tp)
	mm := registryMetrics()

	extract := func(any) estimator.Features { return estimator.Features{1} }
	cal := estimator.NewCalibrated(
		estimator.NewLinear(extract, []float64{1}, 1),
		estimator.Config{MinSamples: 5},
	)
	var mu sync.Mutex
	var committed []estimator.Fault
	f.add("sender1", passthrough("out"), func(c *Config) {
		c.Est = cal
		c.Metrics = mm
		c.Calibration = &Calibration{
			Extract: extract,
			Observe: cal.Observe,
			Commit: func(fault estimator.Fault) error {
				mu.Lock()
				committed = append(committed, fault)
				mu.Unlock()
				return cal.Apply(fault)
			},
		}
	})
	f.add("sender2", passthrough("out"))
	f.add("merger", passthrough("out"))
	f.start()
	defer f.stop()

	f.quiesce("in2", vt.Max)
	for i := 1; i <= 10; i++ {
		f.emit("in1", vt.Time(i*1_000_000), i)
	}
	f.awaitSink(10, 10*time.Second)

	mu.Lock()
	defer mu.Unlock()
	if len(committed) == 0 {
		t.Fatal("no determinism fault committed despite wildly wrong estimator")
	}
	if committed[0].EffectiveVT <= 0 {
		t.Errorf("fault effective VT = %v, want > 0", committed[0].EffectiveVT)
	}
	if snap := mm.Snapshot(); snap.DeterminismFaults == 0 {
		t.Error("determinism fault not counted")
	}
}
