package sltp

// Strict-vs-skip-ahead equivalence for SLTP, mirroring the runahead and
// icfp variants: pipeline.Strict swaps SlotAlloc.Take's jump, in
// normal and advance mode, for a one-cycle-at-a-time walk, and the full
// Result struct must be unchanged on store-pressure and
// branch-on-load-chain workloads.

import (
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

type strictCase struct {
	name string
	cfg  func() pipeline.Config
	w    func() *workload.Workload
}

func tinySB() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.StoreBufEntries = 2
	return cfg
}

func tinySlice() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.SliceEntries = 4
	return cfg
}

func spec(name string, n int) func() *workload.Workload {
	return func() *workload.Workload { return workload.SPEC(name, n) }
}

func scenario(sc workload.Scenario) func() *workload.Workload {
	return func() *workload.Workload { return workload.NewScenario(sc) }
}

func strictCases() []strictCase {
	deflt := pipeline.DefaultConfig
	return []strictCase{
		{"chains", deflt, scenario(workload.ScenarioChains)},
		{"dependent-l2", deflt, scenario(workload.ScenarioDependentL2)},
		{"mcf-tiny-sb", tinySB, spec("mcf", 4000)},
		{"gcc-tiny-slice", tinySlice, spec("gcc", 4000)},
		{"equake-default", deflt, spec("equake", 4000)},
	}
}

func runOnce(tc strictCase, strict bool) pipeline.Result {
	prev := pipeline.Strict
	pipeline.Strict = strict
	defer func() { pipeline.Strict = prev }()
	cfg := tc.cfg()
	cfg.WarmupInsts = 500
	return New(cfg).Run(tc.w())
}

func TestStrictEquivalence(t *testing.T) {
	for _, tc := range strictCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := runOnce(tc, true)
			got := runOnce(tc, false)
			if got != want {
				t.Errorf("skip-ahead diverged from strict stepping:\nstrict: %+v\nskip:   %+v", want, got)
			}
		})
	}
}
