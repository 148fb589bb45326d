package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
)

// TestQuiescenceWaitsForStagedOutputs pins the checkpoint invariant of
// staged outputs: while the worker is inside RouteBatch with a step's
// outputs, no handler is in flight, yet WithQuiescent must not return —
// the state it captures counts output seqs whose envelopes are not in any
// replay buffer yet. Once the batch is routed, the captured output seq
// equals the data envelopes the router received.
func TestQuiescenceWaitsForStagedOutputs(t *testing.T) {
	tp := fig1(t)
	comp, _ := tp.ComponentByName("sender1")
	out := comp.Outputs["out"]
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var routed atomic.Uint64
	s, err := New(Config{Comp: comp, Topo: tp, Handler: passthrough("out"),
		Est: estimator.Constant{C: 100}, Silence: silence.Config{Strategy: silence.Lazy},
		RouteBatch: func(envs []msg.Envelope) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			for _, env := range envs {
				if env.Kind == msg.KindData && env.Wire == out {
					routed.Add(1)
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.Deliver(msg.NewData(comp.Inputs[0], 1, 1000, "a"))
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never routed the step's outputs")
	}

	captured := make(chan State, 1)
	go s.WithQuiescent(func(st State) { captured <- st })
	select {
	case st := <-captured:
		close(release)
		t.Fatalf("WithQuiescent returned while the step's outputs were unrouted (output seq %d, routed %d)",
			st.Outputs[out].Seq, routed.Load())
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case st := <-captured:
		if got, want := st.Outputs[out].Seq, routed.Load(); got != want || want != 1 {
			t.Errorf("captured output seq %d, router received %d data envelopes (want 1)", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WithQuiescent never returned after the batch was routed")
	}
}

// TestCallRoutesStagedOutputsFirst: a call routes everything the step
// staged before its request — here the output of an earlier delivery of
// the same step — and only then blocks, so the callee's merge never waits
// on data stuck behind the blocked caller.
func TestCallRoutesStagedOutputsFirst(t *testing.T) {
	tp := callTopo(t)
	comp, _ := tp.ComponentByName("client")
	var (
		mu  sync.Mutex
		got []msg.Envelope
		s   *Scheduler
	)
	handled := make(chan any, 2)
	client := HandlerFunc(func(ctx *Ctx, _ string, payload any) (any, error) {
		defer func() { handled <- payload }()
		if payload == 1 {
			return nil, ctx.Send("out", payload)
		}
		_, err := ctx.Call("lookup", payload)
		return nil, err
	})
	s, err := New(Config{Comp: comp, Topo: tp, Handler: client,
		Est: estimator.Constant{C: 100}, Silence: silence.Config{Strategy: silence.Lazy},
		RouteBatch: func(envs []msg.Envelope) {
			mu.Lock()
			got = append(got, envs...)
			mu.Unlock()
			for _, env := range envs {
				if env.Kind == msg.KindCallRequest { // answer at once
					s.Deliver(msg.NewCallReply(tp.Wire(env.Wire).Peer, 1, env.VT+1, env.CallID, "r"))
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	// Both inputs are queued before the worker starts, so its first step
	// delivers them back to back.
	s.Deliver(msg.NewData(comp.Inputs[0], 1, 1000, 1))
	s.Deliver(msg.NewData(comp.Inputs[0], 2, 2000, 2))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for i := 0; i < 2; i++ {
		select {
		case <-handled:
		case <-time.After(5 * time.Second):
			t.Fatal("the call never returned: its request was not routed")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	sent, req := -1, -1
	for i, env := range got {
		switch {
		case env.Kind == msg.KindData && env.Payload == 1:
			sent = i
		case env.Kind == msg.KindCallRequest:
			req = i
		}
	}
	if sent < 0 || req < 0 || sent > req {
		t.Errorf("routed order %v: the earlier delivery's output (at %d) must precede the call request (at %d)", got, sent, req)
	}
}
