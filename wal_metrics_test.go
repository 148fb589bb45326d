package tart_test

import (
	"sync"
	"testing"

	tart "repro"
)

// walCounts reads the file-log families of one engine's current
// incarnation.
type walCounts struct {
	inputs, fsyncs float64
	syncs, batches uint64 // histogram sample counts
}

func readWALCounts(t *testing.T, cluster *tart.Cluster, engine string) walCounts {
	t.Helper()
	fams, err := cluster.MetricFamilies(engine)
	if err != nil {
		t.Fatal(err)
	}
	var c walCounts
	for _, f := range fams {
		for _, s := range f.Series {
			switch f.Name {
			case "tart_wal_records_total":
				if s.Get("kind") == "input" {
					c.inputs += s.Value
				}
			case "tart_wal_fsyncs_total":
				c.fsyncs += s.Value
			case "tart_wal_fsync_seconds":
				c.syncs += s.Hist.Count
			case "tart_wal_batch_records":
				c.batches += s.Hist.Count
			}
		}
	}
	return c
}

// TestWALMetricsFedPerIncarnation: on a durable cluster the file log's
// commit observer feeds the engine's registry — every logged input is
// counted, two concurrent sources share fsyncs, each fsync has a duration
// and a batch-size sample — and a recovered incarnation's fresh registry is
// fed in turn. The log is observed only for a push consumer, so the cluster
// asks for one.
func TestWALMetricsFedPerIncarnation(t *testing.T) {
	cluster, err := tart.Launch(coldApp(), tart.WithDurableStore(t.TempDir()), tart.WithFlightRecorder(""))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Sink("out", func(tart.Output) {}); err != nil {
		t.Fatal(err)
	}
	const perSource = 150
	emitAll := func() {
		var wg sync.WaitGroup
		for _, name := range []string{"in1", "in2"} {
			src, err := cluster.Source(name)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSource; i++ {
					if _, err := src.Emit("w"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	emitAll()
	c := readWALCounts(t, cluster, "node")
	if c.inputs != 2*perSource {
		t.Errorf("tart_wal_records_total{kind=input} = %v, want %d", c.inputs, 2*perSource)
	}
	if c.fsyncs == 0 || c.fsyncs >= c.inputs {
		t.Errorf("tart_wal_fsyncs_total = %v for %v inputs from two concurrent sources, want fewer", c.fsyncs, c.inputs)
	}
	if float64(c.syncs) != c.fsyncs || float64(c.batches) != c.fsyncs {
		t.Errorf("histogram samples (fsync_seconds %d, batch_records %d) != fsyncs %v", c.syncs, c.batches, c.fsyncs)
	}

	if err := cluster.Fail("node"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Recover("node"); err != nil {
		t.Fatal(err)
	}
	before := readWALCounts(t, cluster, "node")
	emitAll()
	after := readWALCounts(t, cluster, "node")
	if got := after.inputs - before.inputs; got != 2*perSource {
		t.Errorf("recovered incarnation counted %v inputs, want %d", got, 2*perSource)
	}
}
