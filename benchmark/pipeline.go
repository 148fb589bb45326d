package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"

	tart "repro"
)

// workload is one fixed configuration of the benchmark pipeline. The
// values are part of the benchmark's definition: changing any of them
// invalidates every number measured before the change.
type workload struct {
	name string
	// durable roots WAL and checkpoints in the state directory
	// (WithDurableStore); tcp runs the inter-engine wires over loopback
	// sockets (WithTCP). Every other option stays at its default.
	durable bool
	tcp     bool
	// payload is the encoded Req size in bytes (16 fixed + Pad).
	payload int
	// keys is the preloaded key count; zipf > 1 skews key choice.
	keys int
	zipf float64
	// rate is the paced/faults open-loop arrival rate, both sources
	// together, in messages per second.
	rate float64
	// warmup is the fixed message count each set-up pushes through, paced
	// at rate (0.3 s worth), before it counts as done.
	warmup int
	// reopens is the number of Stop -> Reopen cycles after streaming.
	reopens int
}

var workloads = []workload{
	{
		name:    "mem_fanin",
		payload: 16, keys: 1000, rate: 5000, warmup: 1500,
	},
	{
		name: "tcp_wide",
		tcp:  true, payload: 512, keys: 1000, rate: 5000, warmup: 1500,
	},
	{
		name:    "durable_ingest",
		durable: true, tcp: true, payload: 16, keys: 1000, rate: 1500, warmup: 450, reopens: 5,
	},
	{
		name:    "durable_state",
		durable: true, tcp: true, payload: 16, keys: 250000, zipf: 1.1, rate: 1000, warmup: 300, reopens: 5,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	numShards   = 4
	reqFixed    = 16 // Key u32 | Count u32 | Sent i64
	reqID       = tart.FirstUserPayloadID + 40
	engSources  = "e0" // sources + gate: owns the input WAL
	engShards   = "e1" // the four shards: owns the state
	engCollect  = "e2" // collect + sink
	initialSpan = 1000 // preloaded counts lie in [0, initialSpan)
)

var engines = []string{engSources, engShards, engCollect}

// Req is the benchmark payload. Sent is the message's due (paced) or emit
// (saturate) instant in nanoseconds since the harness epoch, carried to
// the sink so latency needs no side channel; Count is stamped by the shard
// with the key's running count, which is what the correctness gate checks.
type Req struct {
	Key   uint64
	Count uint64
	Sent  int64
	Pad   []byte
}

// Rec is one key's state: 64 bytes.
type Rec struct {
	Count uint64
	Last  uint64
	Sum   uint64
	Pad   [5]uint64
}

var registerReq = sync.OnceValue(func() error {
	if err := tart.RegisterPayload(Req{}); err != nil {
		return err
	}
	return tart.RegisterBinaryPayload(tart.PayloadCodec{
		ID:   reqID,
		Type: reflect.TypeOf(Req{}),
		Append: func(dst []byte, v any) ([]byte, error) {
			r := v.(Req)
			if r.Key > 0xffffffff || r.Count > 0xffffffff {
				return nil, fmt.Errorf("tartbench: Req out of wire range: key %d count %d", r.Key, r.Count)
			}
			var b [reqFixed]byte
			binary.LittleEndian.PutUint32(b[0:4], uint32(r.Key))
			binary.LittleEndian.PutUint32(b[4:8], uint32(r.Count))
			binary.LittleEndian.PutUint64(b[8:16], uint64(r.Sent))
			dst = append(dst, b[:]...)
			return append(dst, r.Pad...), nil
		},
		Decode: func(b []byte) (any, error) {
			if len(b) < reqFixed {
				return nil, fmt.Errorf("tartbench: Req payload: %d bytes, want >= %d", len(b), reqFixed)
			}
			r := Req{
				Key:   uint64(binary.LittleEndian.Uint32(b[0:4])),
				Count: uint64(binary.LittleEndian.Uint32(b[4:8])),
				Sent:  int64(binary.LittleEndian.Uint64(b[8:16])),
			}
			if len(b) > reqFixed {
				r.Pad = append([]byte(nil), b[reqFixed:]...)
			}
			return r, nil
		},
	})
})

// Gate routes each request by key to one of the shards.
type Gate struct{ Routed uint64 }

var shardPorts = [numShards]string{"s0", "s1", "s2", "s3"}

// OnMessage implements tart.Component.
func (g *Gate) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	req := payload.(Req)
	g.Routed++
	return nil, ctx.Send(shardPorts[req.Key%numShards], payload)
}

// Shard updates the key's record and stamps its running count into the
// payload. The state lives in a StateMap registered with WithState, so
// checkpoints capture exactly the map.
type Shard struct {
	m *tart.StateMap[uint64, Rec]
}

// OnMessage implements tart.Component.
func (s *Shard) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	req := payload.(Req)
	rec, _ := s.m.Get(req.Key)
	rec.Count++
	rec.Last = uint64(ctx.Now())
	rec.Sum += req.Key
	rec.Pad[rec.Count%uint64(len(rec.Pad))] ^= rec.Last
	s.m.Put(req.Key, rec)
	req.Count = rec.Count
	return nil, ctx.Send("out", req)
}

// Collect fans the four shard outputs back in and forwards to the sink.
type Collect struct{ Seen uint64 }

// OnMessage implements tart.Component.
func (c *Collect) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	c.Seen++
	return nil, ctx.Send("out", payload)
}

// initialCount is key's preloaded running count, a pure function of the
// seed: component constructors and the verifier both derive it.
func initialCount(seed, key uint64) uint64 {
	return splitmix(seed^(key*0x9e3779b97f4a7c15)) % initialSpan
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newShardState preloads shard i's share of the key space.
func newShardState(seed uint64, shard, keys int) *tart.StateMap[uint64, Rec] {
	m := tart.NewStateMap[uint64, Rec]()
	for k := shard; k < keys; k += numShards {
		key := uint64(k)
		rec := Rec{Count: initialCount(seed, key), Sum: key}
		for i := range rec.Pad {
			// Incompressible filler: a record of zeros would encode to a
			// third of its size and understate every checkpoint.
			rec.Pad[i] = splitmix(seed ^ key<<8 ^ uint64(i))
		}
		m.Put(key, rec)
	}
	return m
}

// buildApp assembles in0,in1 -> gate -> shard0..3 -> collect -> out with
// fresh component objects (a reopened process constructs its components
// the same way a first launch does). Component options stay at their
// defaults; WithState only names the object checkpoints capture.
func buildApp(seed uint64, keys int) *tart.App {
	app := tart.NewApp()
	app.Register("gate", &Gate{})
	for i := 0; i < numShards; i++ {
		m := newShardState(seed, i, keys)
		app.Register(fmt.Sprintf("shard%d", i), &Shard{m: m}, tart.WithState(m))
	}
	app.Register("collect", &Collect{})
	app.SourceInto("in0", "gate", "in0")
	app.SourceInto("in1", "gate", "in1")
	for i := 0; i < numShards; i++ {
		name := fmt.Sprintf("shard%d", i)
		app.Connect("gate", shardPorts[i], name, "in")
		app.Connect(name, "out", "collect", fmt.Sprintf("c%d", i))
	}
	app.SinkFrom("out", "collect", "out")
	app.Place("gate", engSources)
	for i := 0; i < numShards; i++ {
		app.Place(fmt.Sprintf("shard%d", i), engShards)
	}
	app.Place("collect", engCollect)
	return app
}

// clusterOptions returns the options the workload names and nothing else.
func (w workload) clusterOptions(stateDir string) ([]tart.ClusterOption, error) {
	var opts []tart.ClusterOption
	if w.durable {
		opts = append(opts, tart.WithDurableStore(filepath.Join(stateDir, "durable")))
	}
	if w.tcp {
		addrs, err := freeAddrs(engines)
		if err != nil {
			return nil, err
		}
		opts = append(opts, tart.WithTCP(addrs))
	}
	return opts, nil
}

// freeAddrs reserves one free loopback port per engine. The listeners are
// closed before the cluster binds them; nothing else on the machine is
// expected to race for ports while a benchmark runs.
func freeAddrs(names []string) (map[string]string, error) {
	addrs := make(map[string]string, len(names))
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for _, n := range names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("tartbench: reserve port: %w", err)
		}
		held = append(held, l)
		addrs[n] = l.Addr().String()
	}
	return addrs, nil
}
