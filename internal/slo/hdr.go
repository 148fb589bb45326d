// Package slo is the load-harness observability layer: HDR-style
// log-bucketed latency histograms with O(1) lock-free recording, declarative
// latency objectives (p99 < bound), and windowed error-budget burn tracking.
//
// Hist is the module's latency summariser: the load harness, the Fig. 5
// harness (cmd/tartdist) and the root package's Go benchmarks record into
// it. A recorder that appends every observation and sorts on quantile
// reads is fine for a 10k-message experiment but melts under a sustained
// arrival schedule, and — worse — its memory growth perturbs the very tail
// it is measuring. The HDR layout (exponent + sub-bucket index, one atomic
// add per observation) keeps recording constant-time and constant-memory
// with a bounded ~1.6% relative value error, which is far inside the noise
// of any tail-latency claim the harness makes.
package slo

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits is the per-exponent sub-bucket resolution: 2^subBits buckets per
// power of two, bounding relative error at 1/2^subBits (~1.6%).
const subBits = 6

const subCount = 1 << subBits

// histSize covers durations up to ~2^63 ns (≈292 years): exponents 0..56,
// subCount buckets each, plus the exact 0..subCount-1 range.
const histSize = subCount * (64 - subBits)

// Hist is an HDR-style log-bucketed histogram of durations. Observe is
// lock-free and allocation-free; all methods are safe for concurrent use.
// The zero value is not usable — construct with NewHist.
type Hist struct {
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // total nanoseconds
	min    atomic.Int64
	max    atomic.Int64
}

// NewHist creates an empty histogram.
func NewHist() *Hist {
	h := &Hist{counts: make([]atomic.Uint64, histSize)}
	h.min.Store(int64(1)<<62 - 1)
	return h
}

// bucketIndex maps a non-negative nanosecond value to its bucket: values
// below subCount map exactly (index = value); above, the top subBits bits
// after the leading bit select a sub-bucket within the value's power of
// two.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits
	return subCount*e + int(v>>uint(e))
}

// bucketUpper returns the largest value mapping to bucket i — quantiles
// report bucket upper bounds, so an SLO verdict errs conservative.
func bucketUpper(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	e := uint(i/subCount - 1)
	sub := uint64(i%subCount + subCount)
	return (sub+1)<<e - 1
}

// Observe records one latency observation. Negative durations clamp to 0.
func (h *Hist) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Quantile returns the p-quantile (0 <= p <= 1) via a snapshot.
func (h *Hist) Quantile(p float64) time.Duration { return h.Snapshot().Quantile(p) }

// Snapshot is a point-in-time copy of a Hist, suitable for merging and
// repeated quantile queries.
type Snapshot struct {
	Counts []uint64
	Count  uint64
	Sum    time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Snapshot copies the histogram's current state. Cells are read without a
// global lock, so a snapshot taken under concurrent writes is a consistent
// histogram of "roughly now" — exact totals come from quiesced reads.
func (h *Hist) Snapshot() Snapshot {
	s := Snapshot{Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	if s.Count > 0 {
		s.Min = time.Duration(h.min.Load())
	}
	return s
}

// Merge adds another snapshot's observations into s.
func (s *Snapshot) Merge(o Snapshot) {
	if len(s.Counts) == 0 {
		s.Counts = make([]uint64, histSize)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Count > 0 && (s.Count == o.Count || o.Min < s.Min) {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile returns the p-quantile (0 <= p <= 1): the upper bound of the
// bucket containing the ceil(p·count)-th observation. Empty snapshots
// yield 0; p >= 1 yields Max exactly.
func (s Snapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p >= 1 {
		return s.Max
	}
	if p < 0 {
		p = 0
	}
	rank := uint64(p * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			u := time.Duration(bucketUpper(i))
			if u > s.Max {
				return s.Max
			}
			return u
		}
	}
	return s.Max
}

// Mean returns the mean observation (0 when empty).
func (s Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}
