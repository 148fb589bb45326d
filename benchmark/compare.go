package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareFiles prints, for every workload and end-to-end metric, the value
// in A (the baseline) and in B, how much worse B is as a share of A, the
// bound BENCHMARK.json fixes, and a verdict:
//
//	PASS        B is no worse than A by more than the bound
//	FAIL        B is worse than A by more than the bound
//	UNRESOLVED  the runs inside A or inside B differ among themselves by
//	            more than the bound, so the comparison cannot tell
//
// A file holds the runs of one commit (tartbench -out); several runs of a
// workload are reduced to their median. The exit code is non-zero on any
// FAIL, and when B fails a larger share of what it attempted than A.
func compareFiles(sp *spec, pathA, pathB string) int {
	var sets [2]map[string][]*result
	for i, path := range []string{pathA, pathB} {
		runs, err := loadRuns(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tartbench:", err)
			return 2
		}
		sets[i] = runs
	}
	return compareRuns(sp, sets[0], sets[1])
}

// loadRuns reads an -out file and groups its untraced runs by workload.
func loadRuns(path string) (map[string][]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	runs := make(map[string][]*result)
	for _, r := range rf.Results {
		if !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	return runs, nil
}

func compareRuns(sp *spec, a, b map[string][]*result) int {
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "tartbench: the two files share no workload")
		return 2
	}
	code := 0
	fmt.Printf("%-15s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, w := range names {
		for _, ms := range sp.EndToEnd {
			va, spreadA := reduce(a[w], ms.Name)
			vb, spreadB := reduce(b[w], ms.Name)
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if ms.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "PASS"
			switch {
			case spreadA > ms.Bound || spreadB > ms.Bound:
				verdict = "UNRESOLVED"
			case worse > ms.Bound:
				verdict = "FAIL"
				code = 1
			}
			fmt.Printf("%-15s %-24s %14.5g %14.5g %+8.1f%% %6.0f%%  %s\n",
				w, ms.Name, va, vb, worse*100, ms.Bound*100, verdict)
		}
		fa, fb := failedShare(a[w]), failedShare(b[w])
		verdict := "PASS"
		if fb > fa {
			verdict = "FAIL"
			code = 1
		}
		fmt.Printf("%-15s %-24s %14.5g %14.5g %9s %7s  %s\n", w, "failed/attempted", fa, fb, "", "", verdict)
	}
	return code
}

// reduce returns the median of a metric over runs and, with four or more
// runs, the distance between its quartiles as a share of that median.
func reduce(runs []*result, name string) (med, spread float64) {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	med = median(xs)
	if len(xs) >= 4 && med != 0 {
		spread = (quantileSorted(xs, 0.75) - quantileSorted(xs, 0.25)) / med
	}
	return med, spread
}

func failedShare(runs []*result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
