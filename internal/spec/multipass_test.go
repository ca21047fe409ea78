package spec_test

import (
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/runahead"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// newMultipass builds Multipass through the spec layer on cfg, with the
// given trigger ("" is the paper default).
func newMultipass(t *testing.T, cfg pipeline.Config, trigger string) spec.Runner {
	t.Helper()
	r, err := spec.Machine{Model: spec.ModelMultipass, Trigger: trigger}.NewOn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMultipassAcceleratesReexecution(t *testing.T) {
	// The result buffer breaks dependences on re-execution passes, so
	// Multipass should match or beat plain Runahead on most workloads
	// (the paper: "usually slightly out-performs Runahead").
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 50_000
	wins := 0
	for _, name := range []string{"ammp", "mcf", "gap"} {
		ra := runahead.New(cfg).Run(workload.SPEC(name, 250_000))
		mp := newMultipass(t, cfg, "").Run(workload.SPEC(name, 250_000))
		if mp.Cycles <= ra.Cycles {
			wins++
		}
	}
	if wins < 2 {
		t.Fatalf("Multipass beat Runahead on only %d of 3 dependent-miss workloads", wins)
	}
}

func TestMultipassAdvancesUnderPrimaryD1(t *testing.T) {
	// Multipass's paper configuration triggers on primary D$ misses too,
	// so it advances even on workloads without L2 misses.
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 50_000
	r := newMultipass(t, cfg, "").Run(workload.SPEC("twolf", 200_000))
	if r.Advances == 0 {
		t.Fatal("Multipass must advance under twolf's D$ misses")
	}
}

func TestMultipassExplicitTriggerOverride(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 50_000
	cfg.BlockSecondaryD1 = true
	l2 := newMultipass(t, cfg, spec.TriggerL2).Run(workload.SPEC("twolf", 200_000))
	if l2.Advances != 0 {
		t.Fatalf("L2-only Multipass advanced %d times on an L2-hit workload", l2.Advances)
	}
}

func TestMultipassDeterminism(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 20_000
	a := newMultipass(t, cfg, "").Run(workload.SPEC("gcc", 120_000))
	b := newMultipass(t, cfg, "").Run(workload.SPEC("gcc", 120_000))
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}
