package engine

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/msg"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/vt"
)

// bufferTopo builds caller -> callee with a two-way call between them and a
// sink behind the callee, and returns the topology with its data wire, its
// call-reply wire and its sink wire.
func bufferTopo(t testing.TB) (tp *topo.Topology, data, reply, sink msg.WireID) {
	t.Helper()
	b := topo.NewBuilder()
	b.AddComponent("caller")
	b.AddComponent("callee")
	b.AddSource("in", "caller", "in")
	b.Connect("caller", "out", "callee", "in")
	b.ConnectCall("caller", "ask", "callee", "serve")
	b.AddSink("out", "callee", "out")
	b.Place("caller", "A")
	b.Place("callee", "B")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, reply, sink = -1, -1, -1
	for _, w := range tp.Wires() {
		switch w.Kind {
		case topo.WireSend:
			data = w.ID
		case topo.WireCallReply:
			reply = w.ID
		case topo.WireSink:
			sink = w.ID
		}
	}
	if data < 0 || reply < 0 || sink < 0 {
		t.Fatalf("topology lacks a wire kind: data %v reply %v sink %v", data, reply, sink)
	}
	return tp, data, reply, sink
}

// modelBuffers is the replay buffer at its most naive: one slice per wire,
// searched linearly and copied on every trim.
type modelBuffers map[msg.WireID][]msg.Envelope

func modelKey(reply bool, env msg.Envelope) uint64 {
	if reply {
		return env.CallID
	}
	return env.Seq
}

func (m modelBuffers) push(reply bool, env msg.Envelope) {
	buf := m[env.Wire]
	if n := len(buf); n > 0 && modelKey(reply, env) <= modelKey(reply, buf[n-1]) {
		return
	}
	m[env.Wire] = append(buf, env)
}

func (m modelBuffers) trim(reply bool, w msg.WireID, through uint64) {
	var keep []msg.Envelope
	for _, env := range m[w] {
		if modelKey(reply, env) > through {
			keep = append(keep, env)
		}
	}
	m[w] = keep
}

func (m modelBuffers) from(w msg.WireID, fromSeq uint64) []msg.Envelope {
	var out []msg.Envelope
	for _, env := range m[w] {
		if env.Seq >= fromSeq {
			out = append(out, env)
		}
	}
	return out
}

func (m modelBuffers) unacked() []msg.Envelope {
	var wires []msg.WireID
	for w := range m {
		wires = append(wires, w)
	}
	sort.Slice(wires, func(i, j int) bool { return wires[i] < wires[j] })
	var out []msg.Envelope
	for _, w := range wires {
		out = append(out, m[w]...)
	}
	return out
}

func (m modelBuffers) snapshot() map[msg.WireID][]msg.Envelope {
	out := make(map[msg.WireID][]msg.Envelope)
	for w, buf := range m {
		if len(buf) > 0 {
			out[w] = append([]msg.Envelope(nil), buf...)
		}
	}
	return out
}

// sameSnapshot compares two buffer captures (the tests' payloads are
// comparable, so envelopes compare with ==).
func sameSnapshot(a, b map[msg.WireID][]msg.Envelope) bool {
	if len(a) != len(b) {
		return false
	}
	for w, buf := range a {
		if other, ok := b[w]; !ok || !slices.Equal(buf, other) {
			return false
		}
	}
	return true
}

// checkBuffers compares every read-side view of the buffer with the model.
func checkBuffers(t *testing.T, where string, b *bufferSet, m modelBuffers, data, reply msg.WireID, rng *stats.RNG) {
	t.Helper()
	total := 0
	for _, w := range []msg.WireID{data, reply} {
		if got, want := b.count(w), len(m[w]); got != want {
			t.Fatalf("%s: count(%v) = %d, want %d", where, w, got, want)
		}
		total += len(m[w])
	}
	if got := b.total(); got != total {
		t.Fatalf("%s: total = %d, want %d", where, got, total)
	}
	if got, want := b.unacked(), m.unacked(); !slices.Equal(got, want) {
		t.Fatalf("%s: unacked has %d envelopes, want %d (or contents differ)", where, len(got), len(want))
	}
	if got, want := b.snapshot(), m.snapshot(); !sameSnapshot(got, want) {
		t.Fatalf("%s: snapshot differs from model", where)
	}
	// from at the ends, around the head, and at a random interior point.
	froms := []uint64{0, 1, ^uint64(0)}
	if buf := m[data]; len(buf) > 0 {
		head, tail := buf[0].Seq, buf[len(buf)-1].Seq
		froms = append(froms, head-1, head, head+1, tail, tail+1, head+uint64(rng.Intn(int(tail-head)+1)))
	}
	for _, f := range froms {
		if got, want := b.from(data, f), m.from(data, f); !slices.Equal(got, want) {
			t.Fatalf("%s: from(%d) has %d envelopes, want %d (or contents differ)", where, f, len(got), len(want))
		}
	}
	if buf := m[reply]; len(buf) > 0 {
		want := buf[rng.Intn(len(buf))]
		if got, ok := b.replyByCallID(reply, want.CallID); !ok || got != want {
			t.Fatalf("%s: replyByCallID(%d) = %+v,%v, want %+v", where, want.CallID, got, ok, want)
		}
		if _, ok := b.replyByCallID(reply, buf[0].CallID-1); ok {
			t.Fatalf("%s: replyByCallID found a trimmed call", where)
		}
	}
}

// TestChunkedBufferMatchesModel drives the chunked replay buffer and the
// naive model with the same seeded random history.
func TestChunkedBufferMatchesModel(t *testing.T) {
	tp, data, reply, _ := bufferTopo(t)
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		b, m := newBufferSet(), modelBuffers{}
		var seq, callID uint64
		for step := 0; step < 300; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(20); {
			case op < 7: // a burst of sends, some long enough to span chunks
				for n := 1 + rng.Intn(chunkLen*3/2); n > 0; n-- {
					seq++
					env := msg.NewData(data, seq, vt.Time(seq*10), int(seq))
					b.append(env)
					m.push(false, env)
				}
			case op < 9: // regenerated duplicates after a restore
				if buf := m[data]; len(buf) > 0 {
					dup := buf[rng.Intn(len(buf))]
					b.append(dup)
					m.push(false, dup)
				}
			case op < 11:
				for n := 1 + rng.Intn(chunkLen); n > 0; n-- {
					callID++
					env := msg.NewCallReply(reply, callID, vt.Time(callID*7), callID, "r")
					b.appendReply(env)
					m.push(true, env)
				}
			case op < 16: // ack part of the data wire (sometimes beyond its tail)
				through := seq + 3
				if buf := m[data]; len(buf) > 0 {
					through = buf[0].Seq - 1 + uint64(rng.Intn(len(buf)+3))
				}
				b.trim(data, through)
				m.trim(false, data, through)
			case op < 19:
				through := callID
				if buf := m[reply]; len(buf) > 0 {
					through = buf[0].CallID - 1 + uint64(rng.Intn(len(buf)+2))
				}
				b.trim(reply, through)
				m.trim(true, reply, through)
			default: // checkpoint, crash, restore into a fresh buffer set
				snap := b.snapshot()
				b = newBufferSet()
				b.restore(tp, snap)
			}
			checkBuffers(t, where, b, m, data, reply, rng)
		}
	}
}

// TestChunkedBufferBoundaries pins the trims and reads that land on, just
// before and just after a chunk boundary.
func TestChunkedBufferBoundaries(t *testing.T) {
	_, data, reply, _ := bufferTopo(t)
	rng := stats.NewRNG(1)
	for _, headSkew := range []uint64{0, 1, chunkLen - 1} {
		for _, at := range []uint64{chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, 3*chunkLen + 10, 5 * chunkLen} {
			b, m := newBufferSet(), modelBuffers{}
			for seq := uint64(1); seq <= 3*chunkLen+10; seq++ {
				env := msg.NewData(data, seq, vt.Time(seq), int(seq))
				b.append(env)
				m.push(false, env)
			}
			// Move the head off the chunk start first, so boundaries are hit
			// with head == 0 and head != 0.
			b.trim(data, headSkew)
			m.trim(false, data, headSkew)
			where := fmt.Sprintf("head skew %d, trim through %d", headSkew, at)
			checkBuffers(t, where+" (before)", b, m, data, reply, rng)
			b.trim(data, at)
			m.trim(false, data, at)
			checkBuffers(t, where, b, m, data, reply, rng)
			// The buffer keeps working after the trim, across the next boundary.
			for seq := uint64(3*chunkLen + 11); seq <= 5*chunkLen; seq++ {
				env := msg.NewData(data, seq, vt.Time(seq), int(seq))
				b.append(env)
				m.push(false, env)
			}
			checkBuffers(t, where+" (refilled)", b, m, data, reply, rng)
		}
	}
}

// TestBufferSnapshotIsolated: a checkpoint's buffer capture must not change
// under the appends and trims that follow it.
func TestBufferSnapshotIsolated(t *testing.T) {
	_, data, _, _ := bufferTopo(t)
	b := newBufferSet()
	for seq := uint64(1); seq <= 2*chunkLen+5; seq++ {
		b.append(msg.NewData(data, seq, vt.Time(seq), int(seq)))
	}
	snap := b.snapshot()
	want := append([]msg.Envelope(nil), snap[data]...)
	b.trim(data, chunkLen+7)
	for seq := uint64(2*chunkLen + 6); seq <= 4*chunkLen; seq++ {
		b.append(msg.NewData(data, seq, vt.Time(seq), "later"))
	}
	b.trim(data, 4*chunkLen)
	if !slices.Equal(snap[data], want) {
		t.Fatal("snapshot changed after later appends and trims")
	}
}

// TestRestoreDropsSinkWireBuffers: checkpoints written before sink wires
// stopped being buffered carry a sink-wire buffer; restoring one must leave
// that wire empty (nothing could ever trim it) and the others intact.
func TestRestoreDropsSinkWireBuffers(t *testing.T) {
	tp, data, _, sink := bufferTopo(t)
	old := map[msg.WireID][]msg.Envelope{
		data: {msg.NewData(data, 1, 10, "a"), msg.NewData(data, 2, 20, "b")},
		sink: {msg.NewData(sink, 1, 30, "x"), msg.NewData(sink, 2, 40, "y"), msg.NewData(sink, 3, 50, "z")},
	}
	b := newBufferSet()
	b.restore(tp, old)
	if got := b.count(sink); got != 0 {
		t.Errorf("sink wire restored with %d envelopes, want 0", got)
	}
	if got := b.count(data); got != 2 {
		t.Errorf("data wire restored with %d envelopes, want 2", got)
	}
	if got := b.total(); got != 2 {
		t.Errorf("total = %d, want 2", got)
	}
	if _, ok := b.snapshot()[sink]; ok {
		t.Error("next checkpoint would still carry the sink-wire buffer")
	}
}
