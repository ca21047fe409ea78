package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMLPEmpty(t *testing.T) {
	var tr MLPTracker
	if tr.MLP() != 0 || tr.Count() != 0 {
		t.Fatal("empty tracker must report 0")
	}
}

func TestMLPSingleMiss(t *testing.T) {
	var tr MLPTracker
	tr.Add(100, 500)
	if got := tr.MLP(); got != 1 {
		t.Fatalf("single miss MLP = %v, want 1", got)
	}
}

func TestMLPTwoFullyOverlapped(t *testing.T) {
	var tr MLPTracker
	tr.Add(0, 100)
	tr.Add(0, 100)
	if got := tr.MLP(); got != 2 {
		t.Fatalf("overlapped MLP = %v, want 2", got)
	}
}

func TestMLPTwoDisjoint(t *testing.T) {
	var tr MLPTracker
	tr.Add(0, 100)
	tr.Add(200, 300)
	if got := tr.MLP(); got != 1 {
		t.Fatalf("disjoint MLP = %v, want 1", got)
	}
}

func TestMLPPartialOverlap(t *testing.T) {
	var tr MLPTracker
	// [0,100) and [50,150): 100 cycles single + 50 cycles double
	// = (100*1? let's compute: 0-50 one, 50-100 two, 100-150 one.
	// miss-cycles = 50 + 100 + 50 = 200; busy = 150; MLP = 4/3.
	tr.Add(0, 100)
	tr.Add(50, 150)
	if got := tr.MLP(); math.Abs(got-4.0/3.0) > 1e-9 {
		t.Fatalf("partial overlap MLP = %v, want 1.333", got)
	}
}

func TestMLPIgnoresEmptyIntervals(t *testing.T) {
	var tr MLPTracker
	tr.Add(10, 10)
	tr.Add(10, 5)
	if tr.Count() != 0 {
		t.Fatal("degenerate intervals must be ignored")
	}
}

func TestMLPReset(t *testing.T) {
	var tr MLPTracker
	tr.Add(0, 10)
	tr.Reset()
	if tr.Count() != 0 || tr.MLP() != 0 {
		t.Fatal("Reset must clear state")
	}
}

// Property: MLP is always within [1, N] for N non-empty intervals.
func TestMLPBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var tr MLPTracker
		n := 0
		for i := 0; i+1 < len(raw) && n < 50; i += 2 {
			s := int64(raw[i])
			e := s + int64(raw[i+1]%1000) + 1
			tr.Add(s, e)
			n++
		}
		if n == 0 {
			return true
		}
		m := tr.MLP()
		return m >= 1 && m <= float64(n)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	h.Add(0)
	h.Add(1)
	h.Add(1)
	h.Add(9) // clamps to bucket 3
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 || h.Buckets[3] != 1 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	if got := h.Mean(); math.Abs(got-(0+1+1+3)/4.0) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	if got := h.FractionAtLeast(1); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("FractionAtLeast(1) = %v", got)
	}
	if h.FractionAtLeast(4) != 0 {
		t.Fatal("FractionAtLeast beyond buckets must be 0")
	}
}

// TestHistogramAddN pins that n samples recorded at once are n samples
// recorded one by one, clamping included.
func TestHistogramAddN(t *testing.T) {
	one, many := NewHistogram(4), NewHistogram(4)
	for _, v := range []int{0, 2, 9, -1} {
		for range 3 {
			one.Add(v)
		}
		many.AddN(v, 3)
	}
	many.AddN(1, 0)
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("AddN histogram %+v, Add histogram %+v", many, one)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(2)
	h.Add(-5)
	if h.Buckets[0] != 1 {
		t.Fatal("negative sample must clamp to 0")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(2)
	if h.Mean() != 0 || h.FractionAtLeast(0) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{4, 9}); math.Abs(got-6) > 1e-9 {
		t.Fatalf("GeoMean(4,9) = %v, want 6", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("GeoMean(2,2,2) = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) must be 0")
	}
	// Non-positive values skipped.
	if got := GeoMean([]float64{0, -1, 8}); math.Abs(got-8) > 1e-9 {
		t.Fatalf("GeoMean skip = %v", got)
	}
}

// TestMLPSortCacheInterleaved pins the sort-once-behind-a-dirty-flag
// optimization: repeated MLP() calls return identical values, an Add
// between calls invalidates the cached sorted copies, and Reset clears
// them — the tracker must behave exactly as if it sorted on every call.
func TestMLPSortCacheInterleaved(t *testing.T) {
	var tr MLPTracker
	// Deliberately out of order so a stale sorted cache would be wrong.
	tr.Add(200, 300)
	tr.Add(0, 100)
	if a, b := tr.MLP(), tr.MLP(); a != b || a != 1 {
		t.Fatalf("repeated MLP() = %v then %v, want stable 1", a, b)
	}
	// This interval overlaps both earlier ones; a tracker that kept the
	// stale sorted edges would miss it.
	tr.Add(0, 300)
	// fresh computes the same recording from scratch.
	var fresh MLPTracker
	fresh.Add(200, 300)
	fresh.Add(0, 100)
	fresh.Add(0, 300)
	if got, want := tr.MLP(), fresh.MLP(); got != want {
		t.Fatalf("MLP after interleaved Add = %v, fresh tracker = %v", got, want)
	}
	if got := tr.MLP(); got != fresh.MLP() {
		t.Fatalf("second MLP after Add = %v, want %v", got, fresh.MLP())
	}
	tr.Reset()
	if tr.MLP() != 0 || tr.Count() != 0 {
		t.Fatal("Reset must clear the recording and the sorted cache")
	}
	tr.Add(0, 50)
	if got := tr.MLP(); got != 1 {
		t.Fatalf("MLP after Reset+Add = %v, want 1 (stale cache leaked)", got)
	}
}

func TestMeanCI95(t *testing.T) {
	if m, ci := MeanCI95(nil); m != 0 || ci != 0 {
		t.Fatal("empty slice must report (0, 0)")
	}
	if m, ci := MeanCI95([]float64{7}); m != 7 || ci != 0 {
		t.Fatal("single sample must report (x, 0)")
	}
	m, ci := MeanCI95([]float64{1, 3})
	if m != 2 {
		t.Fatalf("mean = %v, want 2", m)
	}
	// s = sqrt(2), ci = 1.96*sqrt(2)/sqrt(2) = 1.96.
	if math.Abs(ci-1.96) > 1e-9 {
		t.Fatalf("ci = %v, want 1.96", ci)
	}
}

// TestMeanCI95ShrinksAsRootK pins the statistical contract the sampled
// harness reports to users: on a fixed-variance synthetic distribution,
// the 95% half-width shrinks like 1/sqrt(k) as windows are added.
func TestMeanCI95ShrinksAsRootK(t *testing.T) {
	// A deterministic zero-autocorrelation sequence with fixed spread:
	// alternating +1/-1 around a base, so s is identical at every even k.
	sample := func(k int) []float64 {
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = 10 + float64(1-2*(i%2))
		}
		return xs
	}
	_, ci16 := MeanCI95(sample(16))
	_, ci64 := MeanCI95(sample(64))
	_, ci256 := MeanCI95(sample(256))
	if ci16 <= 0 || ci64 <= 0 || ci256 <= 0 {
		t.Fatalf("degenerate half-widths: %v %v %v", ci16, ci64, ci256)
	}
	// Quadrupling k must halve the half-width (up to the s_{k-1} factor,
	// well under 2% at these sizes).
	if r := ci16 / ci64; math.Abs(r-2) > 0.05 {
		t.Fatalf("ci(16)/ci(64) = %v, want ~2 (1/sqrt(k) scaling)", r)
	}
	if r := ci64 / ci256; math.Abs(r-2) > 0.05 {
		t.Fatalf("ci(64)/ci(256) = %v, want ~2 (1/sqrt(k) scaling)", r)
	}
}

func TestRatioCI95(t *testing.T) {
	if r, ci := RatioCI95(0, 1, 5, 1); r != 0 || ci != 0 {
		t.Fatal("zero numerator must report (0, 0)")
	}
	if r, ci := RatioCI95(5, 1, 0, 1); r != 0 || ci != 0 {
		t.Fatal("zero denominator must report (0, 0)")
	}
	r, ci := RatioCI95(10, 1, 5, 0)
	if r != 2 || math.Abs(ci-0.2) > 1e-9 {
		t.Fatalf("RatioCI95(10±1, 5±0) = %v±%v, want 2±0.2", r, ci)
	}
	// Relative widths add in quadrature: 3% and 4% give 5%.
	r, ci = RatioCI95(100, 3, 50, 2)
	if r != 2 || math.Abs(ci-2*0.05) > 1e-9 {
		t.Fatalf("RatioCI95(100±3, 50±2) = %v±%v, want 2±0.1", r, ci)
	}
}
