package exp_test

import (
	"reflect"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
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
	first, keys, at := exp.PlanValidated(jobs)
	if want := []int{0, 2, 3}; !reflect.DeepEqual(first, want) {
		t.Errorf("PlanValidated first = %v, want %v", first, want)
	}
	if want := []int{0, 0, 1, 2}; !reflect.DeepEqual(at, want) {
		t.Errorf("PlanValidated at = %v, want %v", at, want)
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
	if !reflect.DeepEqual(keys, got) {
		t.Errorf("PlanValidated keys = %v, want each entry's KeyOf %v", keys, got)
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

// TestCollectMatchesRun pins that a result set assembled from the plan's
// results is the one Run returns for the same jobs.
func TestCollectMatchesRun(t *testing.T) {
	jobs := []exp.Job{
		planJob("a", spec.ModelInOrder, workload.ScenarioLoneL2),
		planJob("b", spec.ModelICFP, workload.ScenarioLoneL2),
		planJob("c", spec.ModelInOrder, workload.ScenarioLoneL2), // same key as a
	}
	c := exp.NewCache()
	rs, err := exp.Run(jobs, exp.WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	_, keys, at := exp.PlanValidated(jobs)
	res := make([]pipeline.Result, len(keys))
	for i, k := range keys {
		res[i], _ = c.Lookup(k)
	}
	if got := exp.Collect(jobs, at, res); !reflect.DeepEqual(got.Results(), rs.Results()) {
		t.Errorf("Collect = %+v\nwant Run's %+v", got.Results(), rs.Results())
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
