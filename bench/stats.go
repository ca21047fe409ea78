package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks — the "inclusive" definition, which
// stays inside the observed range for any sample size. It returns NaN for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads this benchmark reports are the spreads an
// external reader recomputing them from the raw values gets. With fewer
// than two values both quartiles equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python: the i-th cut point sits at 1-based rank i*(n+1)/4,
		// clamped into the sample, interpolated (or, after clamping,
		// extrapolated) between its neighbours.
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return s[j-1] + float64(delta)/4*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure every bound in BENCHMARK.json is set against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// tailPercentiles are the candidate percentiles a timing's tail is
// reported at, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it in a sample of n — the highest tail a
// sample of that size can state honestly — or, when even the median
// leaves fewer than ten (n < 20), the median: such a run has no tail.
// A run's operation count is fixed by its budget, so every run of a
// workload reports the same percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// Verdicts of a -compare row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares one metric's per-rep values before (a) and after (b)
// against its bound, a relative share of a's median. A spread wider than
// the bound on either side leaves the comparison unresolved, unless every
// b value beats every a value. Otherwise b's median moving the wrong way
// by more than the bound is worse, the right way by more than the bound
// better, and anything between ok.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	// worseBy is b's relative change in the bad direction.
	worseBy := (mb - ma) / math.Abs(ma)
	if higherBetter {
		worseBy = -worseBy
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, higherBetter) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case worseBy > bound:
		return verdictWorse
	case worseBy < -bound:
		return verdictBetter
	}
	return verdictOK
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	if higherBetter {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
