package transport

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/msg"
	"repro/internal/vt"
)

// benchBlob is the throughput payload: a byte slice with a registered
// zero-alloc binary codec and a pool so decode reuses carriers in steady
// state (mirrors what a real application does to stay off the allocator).
type benchBlob struct{ B []byte }

const benchBlobID = msg.FirstUserPayloadID + 901

var benchBlobPool = sync.Pool{New: func() any { return &benchBlob{} }}

var registerBenchBlob = sync.OnceFunc(func() {
	err := msg.RegisterBinaryPayload(msg.PayloadCodec{
		ID:   benchBlobID,
		Type: reflect.TypeOf(&benchBlob{}),
		Append: func(dst []byte, v any) ([]byte, error) {
			return append(dst, v.(*benchBlob).B...), nil
		},
		Decode: func(b []byte) (any, error) {
			bl := benchBlobPool.Get().(*benchBlob)
			bl.B = append(bl.B[:0], b...)
			return bl, nil
		},
	})
	if err != nil {
		panic(err)
	}
})

func benchEnvelope(size int, seq uint64) msg.Envelope {
	bl := benchBlobPool.Get().(*benchBlob)
	if len(bl.B) != size {
		bl.B = make([]byte, size)
		for i := range bl.B {
			bl.B[i] = byte(i)
		}
	}
	return msg.NewData(1, seq, vt.Time(seq*100), bl)
}

func recycleBench(env msg.Envelope) {
	if bl, ok := env.Payload.(*benchBlob); ok {
		benchBlobPool.Put(bl)
	}
}

// benchCodecThroughput measures the codec alone: one goroutine encoding
// frames into a reused buffer and decoding them back. This is the lane the
// 0 allocs/op acceptance gate watches.
func benchCodecThroughput(b *testing.B, size int) {
	registerBenchBlob()
	buf := msg.GetBuffer()
	defer msg.PutBuffer(buf)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := benchEnvelope(size, uint64(i+1))
		frame, _, err := msg.AppendFrame((*buf)[:0], env)
		if err != nil {
			b.Fatal(err)
		}
		*buf = frame[:0]
		recycleBench(env)
		out, _, _, err := msg.DecodeFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		recycleBench(out)
	}
	reportEnvRate(b)
}

// benchPairThroughput pushes b.N envelopes through a connected pair:
// the bench goroutine sends, a drain goroutine receives, so the number
// reflects pipelined (not ping-pong) throughput.
func benchPairThroughput(b *testing.B, client, server Conn, size int) {
	registerBenchBlob()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			env, err := server.Recv()
			if err != nil {
				done <- err
				return
			}
			recycleBench(env)
		}
		done <- nil
	}()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(benchEnvelope(size, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	reportEnvRate(b)
}

func reportEnvRate(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "env/s")
	}
}

func benchTCPPair(b *testing.B, size int) {
	client, server, cleanup := tcpPair(b, TCP{})
	defer cleanup()
	benchPairThroughput(b, client, server, size)
}

func benchInprocPair(b *testing.B, size int) {
	a, c := newInprocPair()
	defer a.Close()
	defer c.Close()
	benchPairThroughput(b, a, c, size)
}

var benchSizes = []int{1, 64, 512}

// BenchmarkTransportThroughput is the wire-speed gate: envelopes/sec for
// the codec alone, a real TCP socket pair with scatter-gather batching,
// and a raw in-process channel pair. Baselines live in
// BENCH_transport.json; the CI gate (TestTransportThroughputGate) fails on
// >15% regression.
func BenchmarkTransportThroughput(b *testing.B) {
	kinds := []struct {
		name string
		fn   func(*testing.B, int)
	}{
		{"codec", benchCodecThroughput},
		{"tcp", benchTCPPair},
		{"inproc", benchInprocPair},
	}
	for _, k := range kinds {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%dB", k.name, size), func(b *testing.B) { k.fn(b, size) })
		}
	}
}

// transportBaselines mirrors the BenchmarkTransportThroughput section of
// BENCH_transport.json: lane name -> payload size ("64") -> envelopes/sec.
type transportBaselines struct {
	Throughput map[string]map[string]float64 `json:"BenchmarkTransportThroughput_env_per_sec"`
}

// TestTransportThroughputGate re-runs the throughput lanes and fails if
// any regresses more than the allowed factor below its recorded baseline.
// Opt-in (TART_BENCH_GATE=1): raw throughput numbers are too
// machine-dependent for the default test run, but CI pins a machine class
// and enables it. TART_BENCH_GATE_FACTOR overrides the default 1.15.
func TestTransportThroughputGate(t *testing.T) {
	if os.Getenv("TART_BENCH_GATE") == "" {
		t.Skip("set TART_BENCH_GATE=1 to enable the throughput regression gate")
	}
	factor := 1.15
	if s := os.Getenv("TART_BENCH_GATE_FACTOR"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f < 1 {
			t.Fatalf("bad TART_BENCH_GATE_FACTOR %q", s)
		}
		factor = f
	}
	raw, err := os.ReadFile("../../BENCH_transport.json")
	if err != nil {
		t.Fatal(err)
	}
	var base transportBaselines
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Throughput) == 0 {
		t.Fatal("BENCH_transport.json has no throughput baselines")
	}
	lanes := map[string]func(*testing.B, int){
		"codec":  benchCodecThroughput,
		"tcp":    benchTCPPair,
		"inproc": benchInprocPair,
	}
	for lane, sizes := range base.Throughput {
		fn := lanes[lane]
		if fn == nil {
			t.Errorf("baseline lane %q has no benchmark", lane)
			continue
		}
		for sizeStr, want := range sizes {
			size, err := strconv.Atoi(sizeStr)
			if err != nil {
				t.Fatalf("bad baseline size %q", sizeStr)
			}
			res := testing.Benchmark(func(b *testing.B) { fn(b, size) })
			got := float64(res.N) / res.T.Seconds()
			floor := want / factor
			if got < floor {
				t.Errorf("%s/%dB: %.0f env/s, below gate %.0f (baseline %.0f / factor %.2f)",
					lane, size, got, floor, want, factor)
			} else {
				t.Logf("%s/%dB: %.0f env/s (baseline %.0f, gate %.0f)", lane, size, got, want, floor)
			}
		}
	}
}
