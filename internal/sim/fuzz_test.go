package sim

import (
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// randomProfile is the unbiased fuzz-family member for a seed — the
// generator these tests originated lives in internal/workload now
// (workload.FuzzProfile), promoted to a first-class, spec-addressable
// scenario family.
func randomProfile(seed int64) workload.Profile {
	return workload.FuzzProfile(seed, workload.FuzzKnobs{})
}

// TestFuzzAllMachines runs every machine over a spread of random
// workloads with functional value checking enabled. It catches
// forwarding bugs (panic), deadlocks (watchdog panic or missing
// termination), and instruction-count mismatches.
func TestFuzzAllMachines(t *testing.T) {
	const insts = 60_000
	cfg := DefaultConfig()
	cfg.WarmupInsts = 10_000
	cfg.CheckValues = true

	for seed := int64(1); seed <= 12; seed++ {
		p := randomProfile(seed)
		t.Run(p.Name, func(t *testing.T) {
			var counts []int64
			var baseline int64
			for i, m := range PaperMachines() {
				w := workload.Generate(p, cfg.WarmupInsts+insts, seed)
				r := run(t, m.Machine, cfg, w)
				if r.Cycles <= 0 {
					t.Fatalf("%s: non-positive cycles %d", m.Label, r.Cycles)
				}
				if r.IPC() > float64(cfg.Width) {
					t.Fatalf("%s: IPC %.2f exceeds machine width", m.Label, r.IPC())
				}
				counts = append(counts, r.Insts)
				if i == 0 {
					baseline = r.Cycles
				} else if float64(r.Cycles) > 1.3*float64(baseline) {
					t.Errorf("%s: %d cycles, more than 1.3x the in-order %d",
						m.Label, r.Cycles, baseline)
				}
			}
			for _, c := range counts[1:] {
				if c != counts[0] {
					t.Fatalf("machines committed different instruction counts: %v", counts)
				}
			}
		})
	}
}

// TestFuzzStressSmallStructures shrinks every iCFP structure to force
// the overflow and fallback paths (simple-runahead transitions, drain
// gating, chain-table collisions) under value checking.
func TestFuzzStressSmallStructures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInsts = 10_000
	cfg.CheckValues = true
	cfg.SliceEntries = 8
	cfg.ChainedSBEntries = 8
	cfg.ChainTableEntries = 8
	cfg.PoisonBits = 2

	for seed := int64(20); seed <= 26; seed++ {
		p := randomProfile(seed)
		w := workload.Generate(p, cfg.WarmupInsts+50_000, seed)
		r := run(t, icfpMachine, cfg, w)
		if r.Cycles <= 0 {
			t.Fatalf("%s: bad cycles %d", p.Name, r.Cycles)
		}
		if r.SliceOverflows == 0 && r.SBOverflows == 0 && p.ChaseFrac > 0.02 {
			t.Logf("%s: tiny structures never overflowed (ok but unusual)", p.Name)
		}
	}
}

// TestFuzzPoisonWidths runs iCFP at every poison vector width over one
// dependent-miss fuzz workload.
func TestFuzzPoisonWidths(t *testing.T) {
	p := randomProfile(7)
	p.ChaseFrac = 0.08
	p.Chase2Frac = 0.15
	for bits := 1; bits <= 8; bits++ {
		cfg := DefaultConfig()
		cfg.WarmupInsts = 10_000
		cfg.CheckValues = true
		cfg.PoisonBits = bits
		w := workload.Generate(p, cfg.WarmupInsts+50_000, 7)
		r := run(t, icfpMachine, cfg, w)
		if r.Cycles <= 0 {
			t.Fatalf("bits=%d: bad cycles", bits)
		}
	}
}

// TestAllTriggersTerminate exercises every trigger/blocking combination
// on a mixed workload (termination + determinism).
func TestAllTriggersTerminate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInsts = 10_000
	runahead := spec.Machine{Model: spec.ModelRunahead}
	for _, trig := range []pipeline.AdvanceTrigger{
		pipeline.TriggerL2Only, pipeline.TriggerPrimaryD1, pipeline.TriggerAll,
	} {
		for _, block := range []bool{false, true} {
			c := cfg
			c.Trigger = trig
			c.BlockSecondaryD1 = block
			w := workload.SPEC("equake", c.WarmupInsts+60_000)
			r1 := run(t, runahead, c, w)
			w2 := workload.SPEC("equake", c.WarmupInsts+60_000)
			r2 := run(t, runahead, c, w2)
			if r1.Cycles != r2.Cycles {
				t.Errorf("trigger=%v block=%v: non-deterministic", trig, block)
			}
		}
	}
}
