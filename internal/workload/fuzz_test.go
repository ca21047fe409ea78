package workload

import (
	"fmt"
	"testing"
)

// TestFuzzProfileZeroKnobsIsUnbiased pins the family's backward
// compatibility: the zero-knob member of each seed must be the same
// profile the original test-only generator produced (internal/sim's
// fuzz suites still rely on its behaviour-space spread).
func TestFuzzProfileZeroKnobsIsUnbiased(t *testing.T) {
	p := FuzzProfile(7, FuzzKnobs{})
	if p.Name != "fuzz-s7" {
		t.Errorf("Name = %q", p.Name)
	}
	// Spot-check a seed-derived field against the historical hash
	// derivation (seed*2654435761 + key*40503, mod per field).
	r := func(key, mod int64) float64 {
		x := (7*2654435761 + key*40503) % mod
		if x < 0 {
			x += mod
		}
		return float64(x) / float64(mod)
	}
	if want := 0.15 + 0.2*r(2, 97); p.LoadFrac != want {
		t.Errorf("LoadFrac = %v, want %v", p.LoadFrac, want)
	}
	if want := 0.05 + 0.1*r(3, 89); p.StoreFrac != want {
		t.Errorf("StoreFrac = %v, want %v", p.StoreFrac, want)
	}
}

// TestFuzzDeterministicIdentity pins the identity story: same (seed,
// knobs) always generates a byte-identical trace; different knobs on
// the same seed generate a different one.
func TestFuzzDeterministicIdentity(t *testing.T) {
	k := FuzzKnobs{SBPressure: 70, MissCluster: 30}
	a := Fuzz(104, k, 3000)
	b := Fuzz(104, k, 3000)
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for i := 0; i < a.Trace.Len(); i++ {
		if *a.Trace.At(i) != *b.Trace.At(i) {
			t.Fatalf("traces diverge at %d", i)
		}
	}
	c := Fuzz(104, FuzzKnobs{SBPressure: 71, MissCluster: 30}, 3000)
	same := a.Trace.Len() == c.Trace.Len()
	if same {
		for i := 0; i < a.Trace.Len(); i++ {
			if *a.Trace.At(i) != *c.Trace.At(i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different knobs generated an identical trace")
	}
}

// TestFuzzKnobsValidate pins the 0..100 intensity range with named
// errors — the guard the spec layer relies on.
func TestFuzzKnobsValidate(t *testing.T) {
	if err := (FuzzKnobs{SBPressure: 100, RallyStarve: 0}).Validate(); err != nil {
		t.Errorf("in-range knobs rejected: %v", err)
	}
	for _, k := range []FuzzKnobs{
		{SBPressure: 101}, {BranchOnLoad: -1}, {MissCluster: 1000}, {RallyStarve: -5},
	} {
		if err := k.Validate(); err == nil {
			t.Errorf("knobs %+v accepted, want range error", k)
		}
	}
}

// TestFuzzCorpusIsWellFormed keeps the committed corpus usable as an
// identity set: unique labels, unique (seed, knobs) identities, every
// member valid.
func TestFuzzCorpusIsWellFormed(t *testing.T) {
	labels := map[string]bool{}
	names := map[string]bool{}
	for _, c := range FuzzCorpus() {
		if c.Label == "" || labels[c.Label] {
			t.Errorf("corpus label %q empty or duplicated", c.Label)
		}
		labels[c.Label] = true
		if names[c.Name()] {
			t.Errorf("corpus identity %q duplicated", c.Name())
		}
		names[c.Name()] = true
		if err := c.Knobs.Validate(); err != nil {
			t.Errorf("corpus member %q invalid: %v", c.Label, err)
		}
	}
	if len(labels) < 20 {
		t.Errorf("corpus has %d members, want >= 20", len(labels))
	}
	if _, ok := FuzzCorpusMember("sb-extreme"); !ok {
		t.Error("FuzzCorpusMember misses a committed label")
	}
	if _, ok := FuzzCorpusMember("nope"); ok {
		t.Error("FuzzCorpusMember invented a member")
	}
}

// TestGenerateSurvivesDegenerateProfiles pins the generator's panic
// fixes: profiles whose probabilistic rounding or degenerate byte
// budgets used to divide by zero, call rand.Int63n(0), or build a
// negative-capacity slice must now generate. These shapes are exactly
// what a hostile spec-decoded fuzz profile could once reach.
func TestGenerateSurvivesDegenerateProfiles(t *testing.T) {
	for _, p := range degenerateProfiles {
		t.Run(p.Name, func(t *testing.T) {
			w := Generate(p, 5000, 1)
			if w.Trace.Len() == 0 {
				t.Fatal("empty trace")
			}
		})
	}
}

// degenerateProfiles are the shapes TestGenerateSurvivesDegenerateProfiles
// must generate and TestGenerateMatchesOracle compares.
var degenerateProfiles = []Profile{
	// ChaseFrac without chase memory: empty far ring.
	{Name: "no-chase-mem", LoadFrac: 0.4, ChaseFrac: 0.3, ChaseBytes: 0},
	// Chase2Frac without near-ring memory.
	{Name: "no-chase2-mem", LoadFrac: 0.4, Chase2Frac: 0.3, Chase2Bytes: 0},
	// RandFrac with a random region too small to address.
	{Name: "tiny-rand", LoadFrac: 0.4, RandFrac: 0.4, RandBytes: 4},
	// Rounding pressure: fractions sum to ~1 of loads, so per-body
	// rounding can transiently exceed the load budget.
	{Name: "round-pressure", LoadFrac: 0.5, ChaseFrac: 0.5, Chase2Frac: 0.49,
		ChaseBytes: 1 << 20, Chase2Bytes: 1 << 16},
	// Stores with degenerate random region.
	{Name: "store-tiny-rand", LoadFrac: 0.2, StoreFrac: 0.3, RandFrac: 0.5, RandBytes: 4},
	// Chase rings smaller than two nodes round up to two.
	{Name: "tiny-chase", LoadFrac: 0.4, StoreFrac: 0.2, ChaseFrac: 0.3, Chase2Frac: 0.3,
		ChaseBytes: 40, Chase2Bytes: 100, PoisonAddrFrac: 0.5},
}

// TestFuzzName pins the display-name forms.
func TestFuzzName(t *testing.T) {
	if got := FuzzName(9, FuzzKnobs{}); got != "fuzz-s9" {
		t.Errorf("zero-knob name = %q", got)
	}
	want := fmt.Sprintf("fuzz-s9-sb%d-bl%d-mc%d-rs%d", 1, 2, 3, 4)
	if got := FuzzName(9, FuzzKnobs{SBPressure: 1, BranchOnLoad: 2, MissCluster: 3, RallyStarve: 4}); got != want {
		t.Errorf("knobbed name = %q, want %q", got, want)
	}
}
