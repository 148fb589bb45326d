package transport

import (
	"testing"
	"time"

	"repro/internal/msg"
)

// netemPair builds an A-dials-B link through a Netem over Inproc and
// returns the emulator plus both connection ends.
func netemPair(t *testing.T, nm *Netem) (dialer, acceptor Conn) {
	t.Helper()
	inner := NewInproc()
	nm.SetAddrs(map[string]string{"A": "inproc:A", "B": "inproc:B"})
	viewB := nm.For("B", inner)
	l, err := viewB.Listen("inproc:B")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	acceptCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	viewA := nm.For("A", inner)
	d, err := viewA.Dial("inproc:B")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-acceptCh:
		return d, a
	case <-time.After(2 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil
	}
}

// sendLane sends seqs 1..n through the dialer's send lane of a Netem link
// under plan, closes the dialer (which drains a held envelope) and returns
// the seqs the acceptor received, in order.
func sendLane(t *testing.T, seed uint64, plan FaultPlan, n int) []uint64 {
	t.Helper()
	nm := NewNetem(seed)
	nm.SetLinkPlan("A", "B", plan)
	dialer, acceptor := netemPair(t, nm)
	defer acceptor.Close()
	for i := 1; i <= n; i++ {
		if err := dialer.Send(msg.NewData(1, uint64(i), 0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dialer.Close(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		env, err := acceptor.Recv()
		if err != nil {
			return got
		}
		got = append(got, env.Seq)
	}
}

func TestFaultyDrop(t *testing.T) {
	if got := sendLane(t, 1, FaultPlan{DropProb: 1}, 10); len(got) != 0 {
		t.Errorf("drop-all delivered %v", got)
	}
}

func TestFaultyDuplicate(t *testing.T) {
	got := sendLane(t, 2, FaultPlan{DupProb: 1}, 1)
	if len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("dup-all delivered %v", got)
	}
}

func TestFaultyReorder(t *testing.T) {
	// With probability 1 every odd send is held and the next releases both,
	// swapped.
	got := sendLane(t, 3, FaultPlan{ReorderProb: 1}, 4)
	if len(got) != 4 {
		t.Fatalf("reorder delivered %v", got)
	}
	if got[0] != 2 || got[1] != 1 {
		t.Errorf("expected swap of first pair, got %v", got)
	}
}

func TestFaultyPassthroughWhenCleanPlan(t *testing.T) {
	got := sendLane(t, 4, FaultPlan{}, 100)
	if len(got) != 100 {
		t.Fatalf("clean plan delivered %d frames", len(got))
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("clean plan reordered: %v", got)
		}
	}
}

func TestFaultyDeterministicSchedule(t *testing.T) {
	plan := FaultPlan{DropProb: 0.3, DupProb: 0.2, ReorderProb: 0.2}
	a, b := sendLane(t, 42, plan, 50), sendLane(t, 42, plan, 50)
	if len(a) != len(b) {
		t.Fatalf("fault schedule not deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at %d", i)
		}
	}
}

func TestFaultyCloseDrainsHeld(t *testing.T) {
	nm := NewNetem(3)
	nm.SetLinkPlan("A", "B", FaultPlan{ReorderProb: 1})
	dialer, acceptor := netemPair(t, nm)
	defer acceptor.Close()
	// With reorder probability 1 the first send is held back; a hello
	// bypasses the lane, so it arrives first.
	if err := dialer.Send(msg.NewData(1, 1, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if err := dialer.Send(msg.Envelope{Kind: msg.KindHello}); err != nil {
		t.Fatal(err)
	}
	if env, err := acceptor.Recv(); err != nil || env.Kind != msg.KindHello {
		t.Fatalf("held envelope delivered early: %+v %v", env, err)
	}
	if err := dialer.Close(); err != nil {
		t.Fatal(err)
	}
	if env, err := acceptor.Recv(); err != nil || env.Seq != 1 {
		t.Errorf("Close did not drain held envelope: %+v %v", env, err)
	}
}

func TestNetemCutSeversAndBlocksDial(t *testing.T) {
	nm := NewNetem(1)
	dialer, acceptor := netemPair(t, nm)
	defer acceptor.Close()

	if err := dialer.Send(msg.NewData(1, 1, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if env, err := acceptor.Recv(); err != nil || env.Seq != 1 {
		t.Fatalf("pre-cut delivery: %v %v", env, err)
	}

	nm.Cut("A", "B")
	if err := dialer.Send(msg.NewData(1, 2, 0, nil)); err == nil {
		t.Error("send on severed connection succeeded")
	}
	inner := NewInproc() // fresh inner; the view resolves the cut first
	if _, err := nm.For("A", inner).Dial("inproc:B"); err == nil {
		t.Error("dial across a cut link succeeded")
	}
	st := nm.Stats()
	if st.Severed != 1 || st.CutDials != 1 {
		t.Errorf("stats = %+v, want 1 severed and 1 cut dial", st)
	}

	nm.Heal("A", "B")
	d2, a2 := netemPair(t, nm)
	defer d2.Close()
	defer a2.Close()
	if err := d2.Send(msg.NewData(1, 3, 0, nil)); err != nil {
		t.Fatalf("post-heal send: %v", err)
	}
	if env, err := a2.Recv(); err != nil || env.Seq != 3 {
		t.Fatalf("post-heal delivery: %v %v", env, err)
	}
}

func TestNetemFaultsBothDirections(t *testing.T) {
	nm := NewNetem(7)
	nm.SetLinkPlan("A", "B", FaultPlan{DupProb: 1})
	dialer, acceptor := netemPair(t, nm)
	defer dialer.Close()
	defer acceptor.Close()

	// Dialer→acceptor: duplicated on the send path.
	if err := dialer.Send(msg.NewData(1, 1, 0, nil)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if env, err := acceptor.Recv(); err != nil || env.Seq != 1 {
			t.Fatalf("dup copy %d: %v %v", i, env, err)
		}
	}
	// Acceptor→dialer: duplicated on the dialer's receive path.
	if err := acceptor.Send(msg.NewData(2, 9, 0, nil)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if env, err := dialer.Recv(); err != nil || env.Seq != 9 {
			t.Fatalf("recv dup copy %d: %v %v", i, env, err)
		}
	}
	if st := nm.Stats(); st.Duplicated != 2 {
		t.Errorf("Duplicated = %d, want 2", st.Duplicated)
	}
}

func TestNetemHellosExemptFromFaults(t *testing.T) {
	nm := NewNetem(3)
	nm.SetLinkPlan("A", "B", FaultPlan{DropProb: 1})
	dialer, acceptor := netemPair(t, nm)
	defer dialer.Close()
	defer acceptor.Close()

	// Data frames vanish under a drop-all plan...
	if err := dialer.Send(msg.NewData(1, 1, 0, nil)); err != nil {
		t.Fatal(err)
	}
	// ...but control-plane hellos (handshakes, heartbeats) always get
	// through, in both directions.
	if err := dialer.Send(msg.Envelope{Kind: msg.KindHello, Payload: "A"}); err != nil {
		t.Fatal(err)
	}
	if env, err := acceptor.Recv(); err != nil || env.Kind != msg.KindHello {
		t.Fatalf("forward hello: %+v %v", env, err)
	}
	if err := acceptor.Send(msg.Envelope{Kind: msg.KindHello, Payload: "B"}); err != nil {
		t.Fatal(err)
	}
	if env, err := dialer.Recv(); err != nil || env.Kind != msg.KindHello {
		t.Fatalf("reverse hello: %+v %v", env, err)
	}
}

func TestNetemUnknownAddrPassesThrough(t *testing.T) {
	nm := NewNetem(5)
	inner := NewInproc()
	if _, err := inner.Listen("inproc:X"); err != nil {
		t.Fatal(err)
	}
	// "inproc:X" was never registered with SetAddrs: the view must fall
	// back to the raw transport rather than failing or faulting the link.
	view := nm.For("A", inner)
	if _, err := view.Dial("inproc:X"); err != nil {
		t.Fatalf("unregistered addr dial: %v", err)
	}
	if _, err := view.Dial("inproc:missing"); err == nil {
		t.Error("dial to absent listener succeeded")
	}
}
