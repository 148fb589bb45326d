package sched

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/silence"
	"repro/internal/vt"
)

type nopRouter struct{}

func (nopRouter) Route(msg.Envelope) {}

// benchMergeWide drives one merger scheduler with a W-way round-robin
// in-order stream and measures the per-delivery cost of the merge step.
func benchMergeWide(b *testing.B, wires int, obs Observer, audit *AuditLog) {
	tp := fanInTopo(b, wires)
	comp, _ := tp.ComponentByName("merger")
	target := int64(b.N)
	var delivered atomic.Int64
	done := make(chan struct{})
	handler := HandlerFunc(func(ctx *Ctx, port string, payload any) (any, error) {
		if delivered.Add(1) == target {
			close(done)
		}
		return nil, nil
	})
	s, err := New(Config{
		Comp:    comp,
		Topo:    tp,
		Handler: handler,
		Est:     estimator.Constant{C: 50},
		Silence: silence.Config{Strategy: silence.Lazy},
		Router:  nopRouter{},
		Metrics: obs,
		Audit:   audit,
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	defer s.Stop()

	seqs := make([]uint64, wires)
	b.ReportAllocs()
	b.ResetTimer()
	t := vt.Time(0)
	for i := 0; i < b.N; i++ {
		w := i % wires
		t = t.Add(1)
		seqs[w]++
		s.Deliver(msg.NewData(comp.Inputs[w], seqs[w], t, nil))
	}
	for _, wid := range comp.Inputs {
		s.Deliver(msg.NewSilence(wid, vt.Max))
	}
	<-done
	b.StopTimer()
}

// BenchmarkSchedulerMergeWide measures the indexed-heap merge at widening
// fan-in; per delivery it should grow only as O(log W). Each width runs
// with the observer off and as a Cluster attaches it (see observers).
func BenchmarkSchedulerMergeWide(b *testing.B) {
	for _, w := range []int{16, 64, 256} {
		for _, o := range observers() {
			b.Run(fmt.Sprintf("heap-%d/%s", w, o.name), func(b *testing.B) { benchMergeWide(b, w, o.obs, o.audit) })
		}
	}
}
