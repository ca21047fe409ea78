package diffcheck

import (
	"strings"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/workload"
)

// sample is a small corpus slice that keeps the test fast while still
// exercising a biased and an unbiased family member.
func sample() []workload.FuzzCase {
	return []workload.FuzzCase{
		{Label: "plain", Seed: 3},
		{Label: "pressured", Seed: 102, Knobs: workload.FuzzKnobs{SBPressure: 85}},
	}
}

func opts() Options {
	return Options{N: 24_000, Warm: 4_000}
}

func TestInvariantsHoldOnSample(t *testing.T) {
	reports, err := CheckAll(sample(), opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if !r.OK() {
			t.Errorf("%s: unexpected violations: %v", r.Scenario, r.Violations)
		}
		wantStats := len(fullMachines(0)) + len(sampledLabels())
		if len(r.Stats) != wantStats {
			t.Errorf("%s: %d stats, want %d", r.Scenario, len(r.Stats), wantStats)
		}
	}
}

// TestPerturbedModelIsCaught is the oracle's teeth check: corrupting
// any model's stats must violate at least one invariant on every
// scenario — otherwise the gate would wave a broken model through.
func TestPerturbedModelIsCaught(t *testing.T) {
	for _, model := range []string{InOrder, ICFP, ICFPIdeal, OOO} {
		o := opts()
		o.Perturb = model
		reports, err := CheckAll(sample(), o)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if r.OK() {
				t.Errorf("perturb %s: scenario %s passed every invariant", model, r.Scenario)
			}
		}
	}
}

// TestSharedCacheMemoizes pins the tentpole's cache-citizenship claim
// at the oracle level: a second corpus check against the same cache
// re-simulates nothing.
func TestSharedCacheMemoizes(t *testing.T) {
	o := opts()
	o.Cache = exp.NewCache()
	if _, err := CheckAll(sample(), o); err != nil {
		t.Fatal(err)
	}
	first := o.Cache.Simulations()
	if first == 0 {
		t.Fatal("first check simulated nothing")
	}
	if _, err := CheckAll(sample(), o); err != nil {
		t.Fatal(err)
	}
	if again := o.Cache.Simulations(); again != first {
		t.Fatalf("second check simulated %d new runs, want 0", again-first)
	}
}

// TestViolationMessagesNameTheModel keeps the oracle's output usable:
// a violation must name the offending model label.
func TestViolationMessagesNameTheModel(t *testing.T) {
	o := opts()
	o.Perturb = ICFP
	reports, err := CheckAll(sample(), o)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range reports {
		for _, v := range r.Violations {
			if strings.Contains(v, ICFP) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no violation names the perturbed model")
	}
}
