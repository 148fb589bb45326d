package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	tart "repro"
	"repro/internal/stats"
)

// workload is one run of the paper's Figure-1 application: two senders,
// each fed by its own external source, and a merger. The deterministic run
// (runTART) and the conventional one (runBaseline) take the same workload
// and draw the same arrivals and the same loop counts from its seed.
type workload struct {
	// perSender is the number of external messages each source emits.
	perSender [2]int
	// rates is each source's mean rate in msg/s.
	rates [2]float64
	// poisson draws exponential gaps from the seed; otherwise the gaps are
	// constant (Figure 5).
	poisson bool
	seed    uint64
	// iters bounds each sender message's loop count k, drawn uniformly from
	// iters[0]..iters[1] and carried in the payload; {0, 0} is no loop.
	iters [2]int
	// iterCost is the real cost of one sender loop iteration and mergeCost
	// the merger's per-message cost; both are busy loops.
	iterCost, mergeCost time.Duration

	// The deterministic run only: the silence strategy, the senders' and
	// the merger's estimators, span sampling (0 is off), and the Figure-5
	// operator surface.
	strategy             tart.SilenceStrategy
	senderEst, mergerEst tart.ComponentOption
	spans                int
	debug                bool
	hold                 time.Duration
}

// result is one run's measurements.
type result struct {
	// lat holds per-request latencies in completion order.
	lat []time.Duration
	// backlog is how many outputs were still owed when the last request
	// had been emitted: a backlog that grows with the run marks saturation.
	backlog int
	// coef is the through-origin regression of the senders' measured
	// handler cost on k, in ns per iteration (0 without a loop).
	coef float64
	// The deterministic run only: per-wire registry rows and, with spans
	// on, every traced request's critical path.
	wires map[string]*wireRow
	paths []tart.CriticalPathBreakdown
}

// req packs a request's identity and its loop count k into the uint64
// payload both runners carry; the low byte is k.
func req(sender, n, k int) uint64 { return uint64(sender)<<40 | uint64(n)<<8 | uint64(k) }

func loops(p any) int {
	v, _ := p.(uint64)
	return int(v & 0xff)
}

func (w workload) draw(rng *stats.RNG) int { return w.iters[0] + rng.Intn(w.iters[1]-w.iters[0]+1) }

// spin runs n steps of a xorshift generator: fixed work whose real cost
// jitters as the machine does. It is never inlined, so callers that drop
// the result still pay for the loop.
//
//go:noinline
func spin(n int, x uint64) uint64 {
	x |= 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// stepsPerMicro is how many spin steps take a microsecond on this machine:
// the best of five timed trials, so a preemption cannot shrink it.
var stepsPerMicro = sync.OnceValue(func() float64 {
	const n = 1 << 20
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		spin(n, uint64(i))
		best = min(best, time.Since(t0))
	}
	return n / (float64(best) / 1e3)
})

func steps(d time.Duration) int {
	return int(stepsPerMicro() * float64(d) / float64(time.Microsecond))
}

// costFit fits the senders' measured handler costs against k by the
// regression WithCalibration runs: least squares through the origin.
type costFit struct {
	mu     sync.Mutex
	xy, xx float64
}

func (f *costFit) observe(k int, d time.Duration) {
	f.mu.Lock()
	f.xy += float64(k) * float64(d)
	f.xx += float64(k * k)
	f.mu.Unlock()
}

// coef returns the fitted ns per iteration, or 0 without a loop.
func (f *costFit) coef() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.xx == 0 {
		return 0
	}
	return f.xy / f.xx
}

// tracker matches outputs to the time their request was emitted.
type tracker struct {
	mu      sync.Mutex
	emitted map[uint64]time.Time
	lat     []time.Duration
	want    int
	done    chan struct{}
}

// newTracker expects one output per request of w.
func newTracker(w workload) *tracker {
	want := w.perSender[0] + w.perSender[1]
	return &tracker{emitted: make(map[uint64]time.Time, want), want: want, done: make(chan struct{})}
}

// emit stamps a request just before it enters the system.
func (t *tracker) emit(p uint64) {
	t.mu.Lock()
	t.emitted[p] = time.Now()
	t.mu.Unlock()
}

// deliver records one output; a duplicate of one already seen is ignored.
func (t *tracker) deliver(p uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t0, ok := t.emitted[p]; ok {
		t.lat = append(t.lat, time.Since(t0))
		delete(t.emitted, p)
		if len(t.lat) == t.want {
			close(t.done)
		}
	}
}

func (t *tracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.want - len(t.lat)
}

// wait blocks until every output has arrived and returns the latencies in
// completion order, or fails after timeout.
func (t *tracker) wait(timeout time.Duration) ([]time.Duration, error) {
	select {
	case <-t.done:
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.lat, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("timed out: %d of %d outputs", t.want-t.outstanding(), t.want)
	}
}

// drive emits the workload's requests from two paced generators, one per
// sender, through send. It returns once both have finished, with the
// outputs still owed at that point and the first send error. Each
// generator draws k, then the gap to its next request, from its own
// seeded stream, and paces by an absolute schedule so a late wake-up does
// not slow the rate.
func drive(w workload, tr *tracker, send func(sender int, p uint64) error) (int, error) {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := stats.NewRNG(w.seed*2 + uint64(s))
			mean := float64(time.Second) / w.rates[s]
			due := time.Now()
			for n := 0; n < w.perSender[s]; n++ {
				p := req(s, n, w.draw(rng))
				tr.emit(p)
				if err := send(s, p); err != nil {
					errs[s] = err
					return
				}
				gap := mean
				if w.poisson {
					gap *= rng.ExpFloat64()
				}
				due = due.Add(time.Duration(gap))
				time.Sleep(time.Until(due))
			}
		}(s)
	}
	wg.Wait()
	return tr.outstanding(), errors.Join(errs...)
}
