// Package stats provides the measurement utilities behind Table 2 and the
// §3.2 store-buffer hop claims: memory-level-parallelism trackers computed
// from miss intervals, and small integer histograms.
//
// The MLP tracker follows the paper's measurement convention: overlapping
// miss intervals are merged and the parallelism of a window is the total
// miss latency divided by the covered wall time, so a value of 1.0 means
// fully serialized misses. Histograms are plain counting bins used for
// hop counts and chain lengths; both types are cheap enough to stay
// enabled in every simulation.
package stats

import (
	"math"
	"slices"
)

// MLPTracker accumulates miss lifetime intervals and computes the average
// number of outstanding misses over cycles where at least one miss is
// outstanding — the MLP definition used by Table 2 of the paper.
type MLPTracker struct {
	// The interval edges, each list sorted in place by MLP: the busy-time
	// sweep needs only the two edge multisets, not which start pairs
	// with which end.
	starts, ends []int64
	// missCycles is Σ(end − start) over the recorded intervals: the
	// outstanding miss-cycles, which equal the sweep's Σ outstanding ×
	// edge gap by construction.
	missCycles int64
}

// Add records one miss outstanding over [start, end). Empty or inverted
// intervals are ignored.
func (t *MLPTracker) Add(start, end int64) {
	if end <= start {
		return
	}
	t.starts = append(t.starts, start)
	t.ends = append(t.ends, end)
	t.missCycles += end - start
}

// Count returns the number of recorded misses.
func (t *MLPTracker) Count() int { return len(t.starts) }

// MLP returns total outstanding miss-cycles divided by cycles with at
// least one outstanding miss. Zero misses yield an MLP of 0.
func (t *MLPTracker) MLP() float64 {
	if len(t.starts) == 0 {
		return 0
	}
	ss, es := t.starts, t.ends
	slices.Sort(ss)
	slices.Sort(es)

	var busyCycles int64
	outstanding := 0
	var lastEdge int64
	si, ei := 0, 0
	for ei < len(es) {
		var edge int64
		if si < len(ss) && ss[si] <= es[ei] {
			edge = ss[si]
		} else {
			edge = es[ei]
		}
		if outstanding > 0 {
			busyCycles += edge - lastEdge
		}
		lastEdge = edge
		if si < len(ss) && ss[si] <= es[ei] {
			outstanding++
			si++
		} else {
			outstanding--
			ei++
		}
	}
	if busyCycles == 0 {
		return 0
	}
	return float64(t.missCycles) / float64(busyCycles)
}

// Reset discards all recorded intervals, keeping the edge lists'
// capacity for the next recording.
func (t *MLPTracker) Reset() {
	t.starts = t.starts[:0]
	t.ends = t.ends[:0]
	t.missCycles = 0
}

// Histogram counts small non-negative integer samples (e.g. store-buffer
// chain hops per load). Samples beyond the last bucket land in the last
// bucket.
type Histogram struct {
	Buckets []uint64
	total   uint64
	sum     uint64
}

// NewHistogram creates a histogram with n buckets (values 0..n-1, with
// overflow clamped to n-1).
func NewHistogram(n int) *Histogram {
	return &Histogram{Buckets: make([]uint64, n)}
}

// Add records one sample.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n samples of value v.
func (h *Histogram) AddN(v int, n uint64) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.Buckets) {
		v = len(h.Buckets) - 1
	}
	h.Buckets[v] += n
	h.total += n
	h.sum += uint64(v) * n
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the average sample value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// FractionAtLeast returns the fraction of samples >= v.
func (h *Histogram) FractionAtLeast(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var n uint64
	for i := v; i < len(h.Buckets); i++ {
		n += h.Buckets[i]
	}
	return float64(n) / float64(h.total)
}

// MeanCI95 returns the sample mean of xs and the 95% confidence
// half-width of that mean under the normal approximation (1.96·s/√k with
// the sample standard deviation s) — the stratified-sampling error bar of
// SMARTS-style interval simulation. Fewer than two samples give a
// half-width of 0 (no spread information).
func MeanCI95(xs []float64) (mean, ci float64) {
	k := len(xs)
	if k == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(k)
	if k < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	s := math.Sqrt(ss / float64(k-1))
	return mean, 1.96 * s / math.Sqrt(float64(k))
}

// RatioCI95 propagates independent 95% half-widths through the ratio
// num/den by the first-order delta method: the relative half-widths add
// in quadrature. It is how sampled speedups (cycle ratios of two
// independently sampled runs) get their error bars. A zero numerator or
// denominator yields (0, 0).
func RatioCI95(num, numCI, den, denCI float64) (ratio, ci float64) {
	if num == 0 || den == 0 {
		return 0, 0
	}
	ratio = num / den
	rel := math.Sqrt((numCI/num)*(numCI/num) + (denCI/den)*(denCI/den))
	return ratio, math.Abs(ratio) * rel
}

// GeoMean returns the geometric mean of xs (each must be > 0); it is used
// for the paper's SPECint/SPECfp/SPEC speedup summaries. Non-positive
// values are skipped.
func GeoMean(xs []float64) float64 {
	prod := 1.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1.0/float64(n))
}
