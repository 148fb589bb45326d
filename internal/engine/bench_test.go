package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/trace"
)

// BenchmarkEnginePipeline measures one input's cost through a live engine:
// the single-engine Figure-1 pipeline (two sources, two word-count senders,
// a merger and a sink, as TestSingleEnginePipelineRealTime runs it). An op
// is one Emit, alternating sources, and the timer runs until the sink has
// seen every output. Lanes: the observer off (nil); the registry a Cluster
// attaches (registry); and that plus a flight recorder in the observer and
// an audit log beside it, as WithFlightRecorder attaches them (flight).
func BenchmarkEnginePipeline(b *testing.B) {
	lanes := []struct {
		name  string
		obs   func() Observer
		audit bool
	}{
		{"nil", func() Observer { return nil }, false},
		{"registry", func() Observer { return registryMetrics("A") }, false},
		{"flight", func() Observer {
			m := registryMetrics("A")
			m.SetRecorder(trace.NewRecorder(0))
			return m
		}, true},
	}
	for _, lane := range lanes {
		b.Run(lane.name, func(b *testing.B) {
			var audit *sched.AuditLog
			if lane.audit {
				audit = sched.NewAuditLog()
			}
			var seen atomic.Int64
			done := make(chan struct{})
			target := int64(b.N)
			e, in1, in2 := startPipeline(b, lane.obs(), audit, func(msg.Envelope) {
				if seen.Add(1) == target {
					close(done)
				}
			})
			defer e.Stop()
			sentence := any([]string{"the", "quick", "fox"}) // boxed once: the op adds no boxing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := in1
				if i%2 == 1 {
					src = in2
				}
				if _, err := src.Emit(sentence); err != nil {
					b.Fatal(err)
				}
			}
			<-done
			b.StopTimer()
		})
	}
}
