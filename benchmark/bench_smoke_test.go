package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload once, traced, at a fifth of the real
// length (one second per phase, since a traced run halves them). A traced
// run measures the end-to-end metrics too, so one run per workload shows
// that every metric BENCHMARK.json names is produced, with the unit it
// names, and that the correctness gate passes. The workloads run one after
// the other: side by side on two cores, and under the race detector, a
// one-second saturate window can pass without a single delivery.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, ms := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !metricName.MatchString(ms.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", ms.Name)
		}
		if seen[ms.Name] {
			t.Errorf("metric %q is named twice in BENCHMARK.json", ms.Name)
		}
		seen[ms.Name] = true
		if ms.Unit == "" {
			t.Errorf("metric %q has no unit", ms.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	// The state lives beside the package, not in t.TempDir(): the durable
	// workloads refuse a tmpfs, which is what /tmp often is.
	if err := os.MkdirAll(".state", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, named := range sp.Workloads {
		w, ok := lookupWorkload(named.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not have", named.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			dir, err := os.MkdirTemp(".state", "smoke-"+w.name+"-")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.RemoveAll(dir) })
			dir, err = filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runWorkload(w, 7, 5.2, true, dir, filepath.Join(dir, "results"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			for _, ms := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
				m, ok := res.Metrics[ms.Name]
				if !ok {
					t.Errorf("metric %s was not measured", ms.Name)
					continue
				}
				if m.Unit != ms.Unit {
					t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
				}
			}
			for name := range res.Metrics {
				if !seen[name] {
					t.Errorf("metric %s is measured but not named in BENCHMARK.json", name)
				}
			}
			for _, f := range []string{"-trace.json", "-layers.json"} {
				if _, err := os.Stat(filepath.Join(dir, "results", w.name+f)); err != nil {
					t.Errorf("traced run did not write %s%s: %v", w.name, f, err)
				}
			}
		})
	}
}
