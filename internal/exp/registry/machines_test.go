package registry_test

import (
	"fmt"
	"reflect"
	"testing"

	"icfp/internal/exp"
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
