package msg

import "testing"

func TestConstructors(t *testing.T) {
	d := NewData(3, 7, 100, "hello")
	if d.Kind != KindData || d.Wire != 3 || d.Seq != 7 || d.VT != 100 || d.Payload != "hello" {
		t.Errorf("NewData = %+v", d)
	}
	s := NewSilence(2, 500)
	if s.Kind != KindSilence || s.Promise != 500 {
		t.Errorf("NewSilence = %+v", s)
	}
	p := NewProbe(1, 300)
	if p.Kind != KindProbe || p.Promise != 300 {
		t.Errorf("NewProbe = %+v", p)
	}
	cr := NewCallRequest(4, 1, 50, 99, "req")
	if cr.Kind != KindCallRequest || cr.CallID != 99 {
		t.Errorf("NewCallRequest = %+v", cr)
	}
	rp := NewCallReply(5, 2, 80, 99, "resp")
	if rp.Kind != KindCallReply || rp.CallID != 99 || rp.VT != 80 {
		t.Errorf("NewCallReply = %+v", rp)
	}
	rr := NewReplayRequest(6, 42)
	if rr.Kind != KindReplayRequest || rr.Seq != 42 {
		t.Errorf("NewReplayRequest = %+v", rr)
	}
	a := NewAck(7, 10)
	if a.Kind != KindAck || a.Seq != 10 {
		t.Errorf("NewAck = %+v", a)
	}
}

func TestIsMessage(t *testing.T) {
	tests := []struct {
		env  Envelope
		want bool
	}{
		{NewData(1, 1, 1, nil), true},
		{NewCallRequest(1, 1, 1, 1, nil), true},
		{NewCallReply(1, 1, 1, 1, nil), true},
		{NewSilence(1, 1), false},
		{NewProbe(1, 1), false},
		{NewReplayRequest(1, 1), false},
		{NewAck(1, 1), false},
	}
	for _, tt := range tests {
		if got := tt.env.IsMessage(); got != tt.want {
			t.Errorf("IsMessage(%v) = %v, want %v", tt.env.Kind, got, tt.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || KindAck.String() != "ack" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

func TestEnvelopeString(t *testing.T) {
	// Smoke test every branch renders without panicking and mentions the wire.
	envs := []Envelope{
		NewData(1, 2, 3, nil),
		NewSilence(1, 3),
		NewProbe(1, 3),
		NewCallRequest(1, 2, 3, 4, nil),
		NewCallReply(1, 2, 3, 4, nil),
		NewReplayRequest(1, 2),
		NewAck(1, 2),
		{Wire: 1, Kind: Kind(42)},
	}
	for _, e := range envs {
		if s := e.String(); len(s) == 0 || s[:2] != "w1" {
			t.Errorf("String(%v) = %q", e.Kind, s)
		}
	}
}

type testPayload struct {
	Words []string
	Count int
}

func TestCodecRoundTrip(t *testing.T) {
	if err := RegisterPayload(testPayload{}); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration of the same type must be tolerated.
	if err := RegisterPayload(testPayload{}); err != nil {
		t.Fatalf("duplicate registration: %v", err)
	}

	in := NewData(5, 9, 12345, testPayload{Words: []string{"a", "b"}, Count: 2})
	data, _, err := AppendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, n, _, err := DecodeFrame(data)
	if err != nil || n != len(data) {
		t.Fatalf("decoded %d of %d bytes: %v", n, len(data), err)
	}
	if out.Wire != in.Wire || out.Seq != in.Seq || out.VT != in.VT || out.Kind != in.Kind {
		t.Errorf("round trip header mismatch: %+v vs %+v", out, in)
	}
	p, ok := out.Payload.(testPayload)
	if !ok {
		t.Fatalf("payload type = %T", out.Payload)
	}
	if p.Count != 2 || len(p.Words) != 2 || p.Words[0] != "a" {
		t.Errorf("payload = %+v", p)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, _, _, err := DecodeFrame([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Error("expected error for garbage input")
	}
}
