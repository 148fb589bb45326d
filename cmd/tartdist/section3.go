package main

import (
	"fmt"
	"strings"
	"time"

	tart "repro"
	"repro/internal/trace/span"
)

// The paper's §III.A workload: Poisson sources at 1 msg/ms per sender,
// senders that run k iterations of 60 µs with k ~ U{10−h..10+h}, and a
// 400 µs merger, each on a dedicated processor. That is 60 % and 80 %
// utilisation: two CPUs of busy loops for the components alone, which a
// 2-vCPU machine cannot give three components plus two engines' runtimes
// and the generators. So the service times stay the paper's and the rates
// are scaled by rateScale: senders at 15 % and the merger at 20 %.
const (
	paperRate = 1000.0 // msg/s per sender
	rateScale = 0.25
	iterCost  = 60 * time.Microsecond
	mergeCost = 400 * time.Microsecond
	meanIters = 10
)

// paperWorkload is the §III.A workload at loop-count half-width hw, with
// the smart estimator at the true per-iteration cost and every request
// span-traced, emitting for d at the scaled rate.
func paperWorkload(seed uint64, d time.Duration, hw int) workload {
	rate := rateScale * paperRate
	n := int(rate * d.Seconds())
	return workload{
		perSender: [2]int{n, n},
		rates:     [2]float64{rate, rate},
		poisson:   true,
		seed:      seed,
		iters:     [2]int{meanIters - hw, meanIters + hw},
		iterCost:  iterCost,
		mergeCost: mergeCost,
		strategy:  tart.Curiosity,
		senderEst: smart(float64(iterCost)),
		mergerEst: tart.WithConstantCost(mergeCost),
		spans:     1,
	}
}

// smart is the paper's smart estimator: WithLinearCost on the payload's k,
// floored at one iteration.
func smart(nsPerIter float64) tart.ComponentOption {
	return tart.WithLinearCost(func(p any) tart.Features { return tart.Features{float64(loops(p))} },
		[]float64{nsPerIter}, time.Duration(nsPerIter))
}

// dumb is the paper's dumb estimator: the mean cost of a sender message.
func dumb() tart.ComponentOption { return tart.WithConstantCost(meanIters * iterCost) }

func (r result) mean() time.Duration { return summary(r.lat).Mean() }

// pessimism is the pessimism share of the traced requests' critical paths:
// the determinism overhead as the paper defines it.
func (r result) pessimism() float64 {
	return span.Aggregate(r.paths).Share(span.PhasePessimism)
}

// merger sums the merger's input wires: deliveries, curiosity probes and
// deliveries out of real-time arrival order.
func (r result) merger() (delivered, probes, outOfOrder float64) {
	for w, row := range r.wires {
		if strings.Contains(w, ">merger.") {
			delivered += row.delivered
			probes += row.probes
			outOfOrder += row.outOfOrder
		}
	}
	return delivered, probes, outOfOrder
}

// overhead is det's mean latency relative to nondet's.
func overhead(det, nondet result) float64 {
	return float64(det.mean()-nondet.mean()) / float64(nondet.mean())
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sweep prints one row per point x, labelled by format: the deterministic
// run of at(x) against the conventional run, which is repeated per point
// only when the draws change with x (perPoint). It returns the mean over
// the deterministic runs of the senders' cost fit in µs per iteration.
func sweep(xs []float64, format string, at func(float64) workload, perPoint bool, port int) (float64, error) {
	fmt.Printf("\n   %-12s %-11s %-11s %-8s %-10s %-10s %-10s\n",
		"", "nondet(µs)", "det(µs)", "det-ovh", "pess-share", "out-of-ord", "probes/msg")
	var nondet result
	var fit float64
	for i, x := range xs {
		var err error
		if i == 0 || perPoint {
			if nondet, err = runBaseline(at(x), port); err != nil {
				return 0, err
			}
		}
		det, err := runTART(at(x), loopback(port+1))
		if err != nil {
			return 0, err
		}
		port += 4
		fit += det.coef / 1e3 / float64(len(xs))
		delivered, probes, ooo := det.merger()
		fmt.Printf("   %-12s %-11.1f %-11.1f %+6.1f%%  %8.1f%%   %-10.3f %-10.2f\n",
			fmt.Sprintf(format, x), us(nondet.mean()), us(det.mean()), 100*overhead(det, nondet),
			100*det.pessimism(), ooo/delivered, probes/delivered)
	}
	fmt.Println()
	return fit, nil
}

// fig3 sweeps the senders' loop-count half-width h (the compute SD is
// 60 µs·√(((2h+1)²−1)/12): 0, 120, 225 and 329 µs) with the smart
// estimator, or with the dumb one.
func fig3(seed uint64, d time.Duration, port int, dumbEst bool) error {
	if dumbEst {
		fmt.Println("== Dumb-estimator study: constant 600 µs estimate (§III.A) ==")
		fmt.Println("   paper: overhead grows with variability, reaching ~13% at U{1..19}")
	} else {
		fmt.Println("== Figure 3: latency vs sender compute variability ==")
		fmt.Println("   paper: det overhead 2.8–4.1% of non-det, roughly flat in SD")
	}
	_, err := sweep([]float64{0, 3, 6, 9}, "h=%.0f", func(h float64) workload {
		w := paperWorkload(seed, d, int(h))
		if dumbEst {
			w.senderEst = dumb()
		}
		return w
	}, true, port)
	return err
}

// fig4 sweeps the smart estimator's coefficient at the paper's maximum
// variability, beside the coefficient the regression WithCalibration runs
// fits to the senders' measured costs.
func fig4(seed uint64, d time.Duration, port int) error {
	fmt.Println("== Figure 4: sensitivity to the estimator coefficient (µs/iter) ==")
	fmt.Println("   paper: minimum near the regression coefficient (60–62 µs/iter), <10%")
	fmt.Println("   out-of-order and ~1.5 probes/msg at the minimum; edges degrade")
	fit, err := sweep([]float64{48, 52, 56, 60, 64, 68, 72}, "%.0f", func(c float64) workload {
		w := paperWorkload(seed, d, 9)
		w.senderEst = smart(c * 1e3)
		return w
	}, false, port)
	fmt.Printf("   regression of measured sender cost on k (WithCalibration's fit),\n")
	fmt.Printf("   mean over the sweep's runs: %.1f µs/iter\n\n", fit)
	return err
}

// throughput raises both senders' rate, per mode, until the outputs still
// owed when emission ends pass backlogLimit.
func throughput(seed uint64, d time.Duration, port int) error {
	const backlogLimit = 50
	fmt.Println("== Throughput saturation (§III.A) ==")
	fmt.Println("   paper: both modes saturated at the identical 1235 msg/s/sender")
	fmt.Printf("   (a run is stable while at most %d outputs are owed when emission ends)\n\n", backlogLimit)
	for _, mode := range []struct {
		name string
		run  func(workload, int) (result, error)
	}{{"non-deterministic", runBaseline}, {"deterministic", func(w workload, port int) (result, error) {
		return runTART(w, loopback(port))
	}}} {
		stable := 0.0
		for _, rate := range []float64{500, 625, 750, 875, 1000, 1125, 1250} {
			w := paperWorkload(seed, d, 9)
			n := int(rate * d.Seconds())
			w.rates, w.perSender, w.spans = [2]float64{rate, rate}, [2]int{n, n}, 0
			r, err := mode.run(w, port)
			if err != nil {
				return err
			}
			port += 4
			fmt.Printf("   %-18s %5.0f msg/s/sender: %4d owed\n", mode.name, rate, r.backlog)
			if r.backlog > backlogLimit {
				break
			}
			stable = rate
		}
		fmt.Printf("   %-18s stable up to %.0f msg/s/sender\n\n", mode.name, stable)
	}
	return nil
}

// blame prints the per-wire table, blame included, for symmetric senders
// and for sender2 eight times slower.
func blame(seed uint64, d time.Duration, port int) error {
	fmt.Println("== Pessimism blame attribution (per-wire last-holdout accounting) ==")
	fmt.Println("   each pessimism episode is blamed on the wire whose silence frontier")
	fmt.Println("   was the last holdout; the slower sender should draw the blame")
	for _, c := range []struct {
		name string
		slow float64
	}{{"symmetric", 1}, {"sender2 8x slower", 8}} {
		w := paperWorkload(seed, d, 9)
		w.rates[1] /= c.slow
		w.perSender[1] = int(w.rates[1] * d.Seconds())
		w.spans = 0
		det, err := runTART(w, loopback(port))
		if err != nil {
			return err
		}
		port += 4
		fmt.Printf("\n   %s: %.0f / %.0f msg/s, det mean %.1f µs\n", c.name, w.rates[0], w.rates[1], us(det.mean()))
		printWireTable(det.wires)
	}
	return nil
}
