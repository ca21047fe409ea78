package registry_test

import (
	"bytes"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/spec"
)

// TestEveryExperimentRoundTripsAsSpec is the property pin for the spec
// redesign: for every registry experiment, Marshal → Unmarshal → Marshal
// is byte-identical, and the rebuilt suite produces exactly the same
// exp.Plan keys as the compiled-in path — so a described experiment
// shipped as JSON names precisely the simulations the binary would run.
func TestEveryExperimentRoundTripsAsSpec(t *testing.T) {
	p := tinyParams()
	for _, name := range registry.Names() {
		s, err := registry.Describe(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b1, err := s.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := spec.UnmarshalSuite(b1)
		if err != nil {
			t.Fatalf("%s: described suite does not re-parse: %v", name, err)
		}
		b2, err := back.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: Marshal -> Unmarshal -> Marshal changed bytes", name)
		}

		direct, err := exp.Plan(s.Jobs)
		if err != nil {
			t.Fatalf("%s: planning the described suite: %v", name, err)
		}
		rebuilt, err := exp.Plan(back.Jobs)
		if err != nil {
			t.Fatalf("%s: planning the round-tripped suite: %v", name, err)
		}
		if len(direct) != len(rebuilt) {
			t.Fatalf("%s: plan sizes diverge across the round trip: %d vs %d", name, len(direct), len(rebuilt))
		}
		for i := range direct {
			if exp.KeyOf(direct[i]) != exp.KeyOf(rebuilt[i]) {
				t.Errorf("%s: plan key %d diverges across the round trip", name, i)
			}
		}
	}
}

// TestDescribedSuiteRendersIdentically is the acceptance pin for -spec:
// running a round-tripped described suite renders byte-identically to
// running the experiment directly, for every experiment in the registry.
// Both paths share one cache, so each simulation happens once.
func TestDescribedSuiteRendersIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry at tiny scale")
	}
	p := tinyParams()
	cache := exp.NewCache()
	for _, name := range registry.Names() {
		var direct bytes.Buffer
		if _, err := registry.Report(&direct, []string{name}, p, exp.WithCache(cache)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		s, err := registry.Describe(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := s.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := spec.UnmarshalSuite(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var viaSpec bytes.Buffer
		if _, err := registry.ReportSuite(&viaSpec, back, exp.WithCache(cache)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(direct.Bytes(), viaSpec.Bytes()) {
			t.Errorf("%s: spec-run output differs from the compiled-in path:\n--- direct ---\n%s\n--- via spec ---\n%s",
				name, direct.String(), viaSpec.String())
		}
	}
}

// TestRegistryRejectsInexpressibleParams pins that a Params.Cfg no
// override can express fails suite building loudly instead of silently
// simulating something else.
func TestRegistryRejectsInexpressibleParams(t *testing.T) {
	p := tinyParams()
	p.Cfg.Hier.L1D.SizeBytes *= 2
	if _, err := registry.Describe("fig5", p); err == nil {
		t.Error("Describe accepted a configuration overrides cannot express")
	}
	if _, err := registry.Run([]string{"fig5"}, p); err == nil {
		t.Error("Run accepted a configuration overrides cannot express")
	}
}
