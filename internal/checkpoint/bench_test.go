package checkpoint

import (
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkIncrementalCheckpoint prices one durable checkpoint of a
// 100k-key Map of which 1 % is touched between checkpoints, as a full
// capture and as a delta: the quiescent hold (Stage, what a delivery loop
// waits for), the bytes shipped, and the whole capture + encode +
// FileStore.Apply that ns/op reports.
func BenchmarkIncrementalCheckpoint(b *testing.B) {
	type rec struct {
		Count uint64
		Pad   [7]uint64
	}
	const keys = 100_000
	for _, delta := range []bool{false, true} {
		name := "full"
		if delta {
			name = "delta"
		}
		b.Run(name, func(b *testing.B) {
			m := NewMap[uint64, rec]()
			for k := uint64(0); k < keys; k++ {
				m.Put(k, rec{Pad: [7]uint64{k * 0x9e3779b97f4a7c15, ^k}})
			}
			store, err := OpenFileStore(filepath.Join(b.TempDir(), "ckpts"))
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			apply := func(seq uint64, delta bool) (hold time.Duration, bytes int) {
				for i := uint64(0); i < keys/100; i++ {
					k := (seq*7919 + i*97) % keys
					r, _ := m.Get(k)
					r.Count++
					m.Put(k, r)
				}
				t0 := time.Now()
				kind, encode, err := Stage(m, delta)
				hold = time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				data, err := encode()
				if err != nil {
					b.Fatal(err)
				}
				ck := &Checkpoint{Engine: "e1", Seq: seq,
					Components: map[string]ComponentState{"table": {Kind: kind, Handler: data}}}
				if err := store.Apply(ck); err != nil {
					b.Fatal(err)
				}
				return hold, len(data)
			}
			apply(1, false) // the base every delta extends
			var hold time.Duration
			var bytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, n := apply(uint64(i)+2, delta)
				hold += h
				bytes += n
			}
			b.ReportMetric(float64(hold.Nanoseconds())/float64(b.N), "hold-ns/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "B/ckpt")
		})
	}
}
