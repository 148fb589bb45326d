package msg_test

// Differential codec test in the style of the sched package's reference
// oracle: a plain encoding/gob stream of envelopes is the reference, and
// every envelope kind with every payload shape must round-trip
// *identically* through it and through the binary frame codec — same
// envelope fields, same payload values, same audit-chain digests — so the
// binary codec carries envelopes without perturbing replay or the
// determinism audit.

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/vt"
)

type diffPayload struct {
	Words []string
	N     int
	Map   map[string]int
}

func differentialEnvelopes(t *testing.T) []msg.Envelope {
	t.Helper()
	if err := msg.RegisterPayload(diffPayload{}); err != nil {
		t.Fatal(err)
	}
	payloads := []any{
		nil,
		"a string payload",
		[]byte{0, 1, 2, 0xFF},
		int(-7),
		int64(1 << 50),
		uint64(1<<64 - 1),
		float64(-0.125),
		true,
		diffPayload{Words: []string{"x", "y"}, N: 3, Map: map[string]int{"a": 1, "b": 2}},
	}
	kinds := []msg.Kind{msg.KindData, msg.KindSilence, msg.KindProbe,
		msg.KindCallRequest, msg.KindCallReply, msg.KindReplayRequest,
		msg.KindAck, msg.KindHello}
	var envs []msg.Envelope
	for ki, k := range kinds {
		for pi, p := range payloads {
			envs = append(envs, msg.Envelope{
				Wire:    msg.WireID(ki*len(payloads) + pi),
				Kind:    k,
				Seq:     uint64(pi + 1),
				VT:      vt.Time(1000*ki + pi),
				Promise: vt.Time(2000 * ki),
				CallID:  uint64(ki),
				Payload: p,
				Origin:  msg.OriginID(uint64(ki)<<32 | uint64(pi)),
				Hops:    uint32(pi),
				Trace:   msg.TraceSampled,
			})
		}
	}
	return envs
}

func TestBinaryMatchesGobReference(t *testing.T) {
	envs := differentialEnvelopes(t)

	// Reference path: a gob stream.
	var gobStream bytes.Buffer
	enc := gob.NewEncoder(&gobStream)
	for _, e := range envs {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	dec := gob.NewDecoder(&gobStream)
	viaGob := make([]msg.Envelope, 0, len(envs))
	for range envs {
		var e msg.Envelope
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		viaGob = append(viaGob, e)
	}

	// Candidate path: the binary frame codec.
	viaBinary := make([]msg.Envelope, 0, len(envs))
	for _, e := range envs {
		data, _, err := msg.AppendFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		out, n, _, err := msg.DecodeFrame(data)
		if err != nil || n != len(data) {
			t.Fatalf("decoded %d of %d bytes: %v", n, len(data), err)
		}
		viaBinary = append(viaBinary, out)
	}

	gobChain, binChain := sched.ChainSeed(), sched.ChainSeed()
	for i := range envs {
		g, b := viaGob[i], viaBinary[i]
		if !reflect.DeepEqual(g, b) {
			t.Errorf("envelope %d diverged:\n gob %+v\n bin %+v", i, g, b)
		}
		// Provenance fields byte-for-byte.
		if g.Origin != b.Origin || g.Hops != b.Hops || g.Trace != b.Trace {
			t.Errorf("envelope %d provenance diverged", i)
		}
		// Payload digests — the audit chain's view — must agree between the
		// two transport representations and with the never-serialized
		// original (the loopback fast path's requirement).
		dg, db, d0 := sched.PayloadDigest(g.Payload), sched.PayloadDigest(b.Payload), sched.PayloadDigest(envs[i].Payload)
		if dg != db || db != d0 {
			t.Errorf("envelope %d digest diverged: gob %x bin %x orig %x", i, dg, db, d0)
		}
		gobChain = sched.ChainNext(gobChain, g.Wire, g.Seq, g.VT, dg)
		binChain = sched.ChainNext(binChain, b.Wire, b.Seq, b.VT, db)
	}
	if gobChain != binChain {
		t.Errorf("audit chains diverged: gob %x bin %x", gobChain, binChain)
	}
}

// TestBinaryDeterministicEncoding: identical envelopes must encode to
// identical bytes (the WAL and any digest over frame bytes rely on it).
// Deliberately excludes map-carrying gob-fallback payloads, which gob does
// not encode deterministically — that is exactly why digests are computed
// from payload values, never from fallback bytes.
func TestBinaryDeterministicEncoding(t *testing.T) {
	envs := []msg.Envelope{
		msg.NewData(1, 2, 300, "abc"),
		msg.NewData(1, 3, 400, []byte{9, 9}),
		msg.NewSilence(2, 500),
		msg.NewCallRequest(3, 1, 600, 42, int64(-1)),
	}
	for i, e := range envs {
		a, _, err := msg.AppendFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := msg.AppendFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("envelope %d: non-deterministic encoding", i)
		}
	}
}
