package exp_test

import (
	"reflect"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// planJob builds a real, cheap job from a model and a scenario. Warmup
// is disabled: scenarios pre-warm their caches explicitly, and the base
// configuration's sampling warmup would otherwise consume the whole
// trace.
func planJob(name, model string, sc workload.Scenario) exp.Job {
	mach := spec.Machine{Model: model, Overrides: &spec.Overrides{Warmup: spec.Int(0)}}
	return exp.Job{Name: name, Machine: mach, Workload: spec.ScenarioWorkload(sc)}
}

// TestPlanDeduplicatesKeys pins that Plan surfaces each distinct
// simulation exactly once, as a self-describing spec, in
// first-appearance order — the contract the distributed dispatcher
// shards on.
func TestPlanDeduplicatesKeys(t *testing.T) {
	jobs := []exp.Job{
		planJob("a", spec.ModelInOrder, workload.ScenarioLoneL2),
		planJob("b", spec.ModelInOrder, workload.ScenarioLoneL2), // same key as a
		planJob("c", spec.ModelICFP, workload.ScenarioLoneL2),
		planJob("d", spec.ModelInOrder, workload.ScenarioChains),
	}
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("plan has %d entries, want 3: %v", len(plan), plan)
	}
	want := []exp.Key{jobs[0].Key(), jobs[2].Key(), jobs[3].Key()}
	got := make([]exp.Key, len(plan))
	for i, sj := range plan {
		got[i] = exp.KeyOf(sj)
		if sj.Name != "" {
			t.Errorf("plan entry %d carries a name %q; plan entries are identity, not presentation", i, sj.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan keys = %v, want %v (first-appearance order)", got, want)
	}
	// Each entry is self-describing: rebuilding a job from it yields the
	// same key.
	for i, sj := range plan {
		rebuilt := exp.Job{Name: "x", Machine: sj.Machine, Workload: sj.Workload}
		if rebuilt.Key() != got[i] {
			t.Errorf("plan entry %d does not round-trip through its spec", i)
		}
	}
}

// TestCacheLookup pins Lookup's completed-only contract: present after a
// run, absent for unknown keys, and populated by AddResults.
func TestCacheLookup(t *testing.T) {
	c := exp.NewCache()
	job := planJob("a", spec.ModelInOrder, workload.ScenarioLoneL2)
	if _, ok := c.Lookup(job.Key()); ok {
		t.Fatal("Lookup hit on an empty cache")
	}
	if _, err := exp.Run([]exp.Job{job}, exp.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	res, ok := c.Lookup(job.Key())
	if !ok || res.Cycles <= 0 {
		t.Fatalf("Lookup after run = (%+v, %v), want a real result", res, ok)
	}

	other := exp.NewCache()
	other.AddResults(c.Snapshot())
	if got, ok := other.Lookup(job.Key()); !ok || got.Cycles != res.Cycles {
		t.Fatalf("Lookup after AddResults = (%+v, %v), want cycles %d", got, ok, res.Cycles)
	}
}
