package registry_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// TestHarnessJobMatchesNewOn pins the two ways a named machine runs at a
// configuration other than the base: as a registry-style harness job
// (the configuration's divergence merged into the spec's overrides, run
// through exp.Run) and built directly by Machine.NewOn. Both must give
// identical results for every machine sim names, and New must build
// exactly what NewOn does on the base configuration.
func TestHarnessJobMatchesNewOn(t *testing.T) {
	cfg := spec.BaseConfig()
	cfg.WarmupInsts = 30_000
	cfg.Hier.L2HitLat = 30
	ov, err := spec.OverridesFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.WarmupInsts + 50_000
	wl := spec.SPECWorkload("swim", n)

	var all []sim.Labeled
	for _, list := range [][]sim.Labeled{sim.PaperMachines(), sim.Figure6Machines(), sim.FeatureBuildConfigs(), sim.StoreBufferConfigs()} {
		all = append(all, list...)
	}
	jobs := make([]exp.Job, len(all))
	for i, m := range all {
		mach := m.Machine
		mach.Overrides = spec.Merge(mach.Overrides, ov)
		jobs[i] = exp.Job{Name: fmt.Sprintf("%d/%s", i, m.Label), Machine: mach, Workload: wl}
	}
	rs, err := exp.Run(jobs, exp.Parallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range all {
		onCfg, err := m.Machine.NewOn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, direct := rs.MustGet(jobs[i].Name), onCfg.Run(workload.SPEC("swim", n)); got != direct {
			t.Errorf("%s: harness job %+v\nNewOn %+v", m.Label, got, direct)
		}

		onBase, err := m.Machine.NewOn(spec.BaseConfig())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := m.Machine.New()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, onBase) {
			t.Errorf("%s: New built %+v, NewOn(BaseConfig()) %+v", m.Label, plain, onBase)
		}
	}
}

// TestAllPlanKeysDistinctMachines pins that the -all plan simulates no
// machine twice: no two plan keys may build the same effective machine,
// meaning the same model (CFP flag included), resolved trigger and store
// buffer (the spec's canonical spelling of them), configuration
// (Machine.Config: the base with the overrides applied) and workload. A
// spec that spells a default override explicitly would otherwise key a
// second, identical run.
func TestAllPlanKeysDistinctMachines(t *testing.T) {
	type effective struct {
		Machine  string // the canonical machine without its overrides
		Cfg      pipeline.Config
		Workload string
	}
	plan, err := registry.Plan(registry.DefaultNames(), registry.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]spec.Job, len(plan))
	for _, j := range plan {
		var resolved spec.Machine
		if err := json.Unmarshal([]byte(j.Machine.Canonical()), &resolved); err != nil {
			t.Fatal(err)
		}
		cfg, err := j.Machine.Config()
		if err != nil {
			t.Fatal(err)
		}
		resolved.Overrides = nil
		k, err := json.Marshal(effective{resolved.Canonical(), cfg, j.Workload.Canonical()})
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[string(k)]; dup {
			t.Errorf("plan keys %s and %s build the same machine on %s",
				prev.Machine.Canonical(), j.Machine.Canonical(), j.Workload.Canonical())
		}
		seen[string(k)] = j
	}
}
