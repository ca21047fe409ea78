package exp_test

import (
	"sync"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// TestArenaGeneratesOncePerKey pins the arena contract: one generation
// per distinct workload spec, even under concurrent Get.
func TestArenaGeneratesOncePerKey(t *testing.T) {
	a := exp.NewArena()
	wl := spec.ScenarioWorkload(workload.ScenarioLoneL2)
	var wg sync.WaitGroup
	got := make([]*workload.Workload, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = a.Get(wl)
		}(i)
	}
	wg.Wait()
	if a.Generations() != 1 {
		t.Errorf("8 concurrent Gets generated %d times, want 1", a.Generations())
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Error("all Gets of one spec must return the same workload")
		}
	}
	a.Get(spec.ScenarioWorkload(workload.ScenarioChains))
	if a.Generations() != 2 {
		t.Errorf("distinct specs: %d generations, want 2", a.Generations())
	}
	// Equal specs built separately still share one generation.
	a.Get(spec.ScenarioWorkload(workload.ScenarioLoneL2))
	if a.Generations() != 2 {
		t.Errorf("re-Get of an equal spec regenerated: %d generations, want 2", a.Generations())
	}
}

// run simulates w on machine m built on cfg.
func run(t *testing.T, m spec.Machine, cfg pipeline.Config, w *workload.Workload) pipeline.Result {
	t.Helper()
	r, err := m.NewOn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Run(w)
}

// TestWorkloadImmutableAcrossModels pins the invariant that makes arena
// sharing sound: running every machine of the evaluation over one shared
// workload leaves the trace bit-identical. If any model ever starts
// writing it, this fails and the arena must go.
func TestWorkloadImmutableAcrossModels(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all five machines")
	}
	cfg := spec.BaseConfig()
	cfg.WarmupInsts = 10_000
	w := workload.SPEC("mcf", cfg.WarmupInsts+40_000)

	traceSum := w.Trace.Checksum()

	for _, m := range sim.PaperMachines() {
		run(t, m.Machine, cfg, w)
		if got := w.Trace.Checksum(); got != traceSum {
			t.Fatalf("%s mutated the shared trace: checksum %#x != %#x", m.Label, got, traceSum)
		}
	}

	// The shared workload also yields the same results as a private one —
	// sharing must be invisible.
	private := workload.SPEC("mcf", cfg.WarmupInsts+40_000)
	for _, model := range []string{spec.ModelInOrder, spec.ModelICFP} {
		m := spec.Machine{Model: model}
		a := run(t, m, cfg, w)
		b := run(t, m, cfg, private)
		if a.Cycles != b.Cycles {
			t.Errorf("%s: shared workload %d cycles, private %d", model, a.Cycles, b.Cycles)
		}
	}
}
