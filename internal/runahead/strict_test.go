package runahead

// Strict-vs-skip-ahead equivalence: Runahead and Multipass are
// instruction-driven — they jump each instruction, in normal and advance
// mode, straight to its gated issue cycle (pipeline.InOrder's Issue and
// IssueAdvance, through SlotAlloc.Take) instead of stepping a cycle
// loop. pipeline.Strict replaces the jump with a one-cycle-at-a-time
// walk, and these tests require the full Result struct to match between
// the two, on adversarial store-buffer pressure and branch-on-load-chain
// workloads.

import (
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

type strictCase struct {
	name string
	cfg  func() pipeline.Config
	mp   bool
	w    func() *workload.Workload
}

// tinySB throttles the in-order store buffer so FullUntil stalls
// dominate issue timing.
func tinySB() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.StoreBufEntries = 2
	return cfg
}

// tinyRC starves the runahead cache so advance-store forwarding evicts
// constantly.
func tinyRC() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.RunaheadCache = 4
	return cfg
}

// nonBlocking advances under D$ misses instead of waiting them out.
func nonBlocking() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.BlockSecondaryD1 = false
	cfg.Trigger = pipeline.TriggerPrimaryD1
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
		{"chains", deflt, false, scenario(workload.ScenarioChains)},
		{"independent-l2", deflt, false, scenario(workload.ScenarioIndependentL2)},
		{"mcf-tiny-sb", tinySB, false, spec("mcf", 4000)},
		{"gcc-branchy", deflt, false, spec("gcc", 4000)},
		{"equake-nonblocking", nonBlocking, false, spec("equake", 4000)},
		{"mp-chains", deflt, true, scenario(workload.ScenarioChains)},
		{"mp-mcf-tiny-rc", tinyRC, true, spec("mcf", 4000)},
		{"mp-gcc-tiny-sb", tinySB, true, spec("gcc", 4000)},
	}
}

func runOnce(tc strictCase, strict bool) pipeline.Result {
	prev := pipeline.Strict
	pipeline.Strict = strict
	defer func() { pipeline.Strict = prev }()
	cfg := tc.cfg()
	cfg.WarmupInsts = 500
	m := New(cfg)
	if tc.mp {
		m = NewMultipass(cfg)
	}
	return m.Run(tc.w())
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

// TestMachineReuseDeterministic pins the scratch-reuse contract: a
// Machine running the same workload repeatedly (runahead cache and
// result-buffer marks retained across calls) must reproduce the first
// run exactly.
func TestMachineReuseDeterministic(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 500
	for _, mp := range []bool{false, true} {
		m := New(cfg)
		if mp {
			m = NewMultipass(cfg)
		}
		first := m.Run(workload.SPEC("mcf", 4000))
		for i := 0; i < 3; i++ {
			if got := m.Run(workload.SPEC("mcf", 4000)); got != first {
				t.Fatalf("mp=%v run %d diverged from first:\nfirst: %+v\ngot:   %+v", mp, i+2, first, got)
			}
		}
	}
}
