package transport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
)

type unregisteredMeterPayload struct{ S string }

func TestMeterObservesBytesBatchesAndFallbacks(t *testing.T) {
	if err := msg.RegisterPayload(unregisteredMeterPayload{}); err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry(trace.L("engine", "meter-test"))
	m := NewMeter(reg)
	tr := TCP{Meter: m}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := acceptOne(t, l)
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	defer srv.Close()

	const sends = 10
	for i := 0; i < sends; i++ {
		var payload any = "registered"
		if i%2 == 0 {
			payload = unregisteredMeterPayload{S: "fallback"}
		}
		time.Sleep(time.Millisecond) // longer than idleGap: each Send writes inline
		if err := c.Send(msg.NewData(1, uint64(i+1), 10, payload)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	if got := m.BytesSent.Value(); got <= 0 {
		t.Errorf("bytes sent = %d, want > 0", got)
	}
	if got := m.BytesRecv.Value(); got <= 0 {
		t.Errorf("bytes recv = %d, want > 0", got)
	}
	if snap := m.FramesPerWritev.Snapshot(); snap.Count != sends {
		// Idle sends: one writev per envelope, so exactly `sends` batches.
		t.Errorf("writev batches = %d, want %d", snap.Count, sends)
	}
	// 5 fallback sends observed on the send side and again on the receive
	// side (both ends share this meter).
	if got := m.Fallbacks.Value(); got != sends {
		t.Errorf("fallbacks = %d, want %d", got, sends)
	}

	// The families render in the exposition format under their canonical
	// names.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{trace.MetricTransportBytes, trace.MetricFramesPerWritev, trace.MetricCodecFallbacks} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
}

func TestNilMeterIsNoOp(t *testing.T) {
	var m *Meter
	m.sent(1)
	m.recv(1)
	m.writevBatch(1)
	m.fallback()
	m = NewMeter(nil)
	m.sent(1)
	m.recv(1)
	m.writevBatch(1)
	m.fallback()
}
