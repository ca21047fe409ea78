package icfp

import (
	"testing"

	"icfp/internal/inorder"
	"icfp/internal/isa"
	"icfp/internal/pipeline"
	"icfp/internal/runahead"
	"icfp/internal/workload"
)

func cfgForTest() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.CheckValues = true
	return cfg
}

func runBoth(t *testing.T, name string, n int) (io, ic pipeline.Result) {
	t.Helper()
	cfg := cfgForTest()
	cfg.WarmupInsts = 50_000
	io = inorder.New(cfg).Run(workload.SPEC(name, 50_000+n))
	ic = New(cfg).Run(workload.SPEC(name, 50_000+n))
	if ic.Insts != io.Insts {
		t.Fatalf("instruction counts differ: %d vs %d", ic.Insts, io.Insts)
	}
	return io, ic
}

func TestScenarioLoneL2BeatsInOrderAndRA(t *testing.T) {
	// Figure 1a: iCFP commits the miss-independent tail and re-executes
	// only the two-instruction slice; RA gains nothing.
	cfg := cfgForTest()
	io := inorder.New(cfg).Run(workload.NewScenario(workload.ScenarioLoneL2))
	ra := runahead.New(cfg).Run(workload.NewScenario(workload.ScenarioLoneL2))
	ic := New(cfg).Run(workload.NewScenario(workload.ScenarioLoneL2))
	if ic.Cycles >= io.Cycles {
		t.Fatalf("iCFP %d must beat in-order %d on a lone L2 miss", ic.Cycles, io.Cycles)
	}
	if ic.Cycles >= ra.Cycles {
		t.Fatalf("iCFP %d must beat Runahead %d on a lone L2 miss", ic.Cycles, ra.Cycles)
	}
}

func TestScenarioIndependentMissesOverlap(t *testing.T) {
	// Figure 1b: independent misses overlap; an in-order pipe serializes.
	cfg := cfgForTest()
	io := inorder.New(cfg).Run(workload.NewScenario(workload.ScenarioIndependentL2))
	ic := New(cfg).Run(workload.NewScenario(workload.ScenarioIndependentL2))
	if float64(ic.Cycles) > 0.7*float64(io.Cycles) {
		t.Fatalf("iCFP %d must overlap the two misses (in-order %d)", ic.Cycles, io.Cycles)
	}
	if ic.Advances != 1 {
		t.Fatalf("one advance episode expected, got %d", ic.Advances)
	}
}

func TestScenarioSecondaryD1Poisoned(t *testing.T) {
	// Figures 1e/1f: iCFP confidently poisons the secondary D$ miss and
	// overlaps the following L2 miss either way.
	cfg := cfgForTest()
	for _, sc := range []workload.Scenario{workload.ScenarioD1IndependentL2, workload.ScenarioD1DependentL2} {
		io := inorder.New(cfg).Run(workload.NewScenario(sc))
		ic := New(cfg).Run(workload.NewScenario(sc))
		if float64(ic.Cycles) > 0.7*float64(io.Cycles) {
			t.Errorf("%s: iCFP %d vs in-order %d", sc, ic.Cycles, io.Cycles)
		}
	}
}

func TestRallyReexecutesOnlySlices(t *testing.T) {
	// On the lone-miss scenario the slice is 2 instructions; rally work
	// must be tiny even though the advance covered dozens of instructions.
	cfg := cfgForTest()
	ic := New(cfg).Run(workload.NewScenario(workload.ScenarioLoneL2))
	if ic.RallyInsts > 4 {
		t.Fatalf("rally executed %d instructions; slice is 2", ic.RallyInsts)
	}
	if ic.AdvanceInsts < 20 {
		t.Fatalf("advance covered only %d instructions", ic.AdvanceInsts)
	}
}

func TestICFPSpeedsUpHighMissWorkloads(t *testing.T) {
	io, ic := runBoth(t, "ammp", 150_000)
	if sp := ic.SpeedupOver(io); sp < 30 {
		t.Fatalf("ammp speedup = %.1f%%, expected a large win", sp)
	}
}

func TestICFPHarmlessOnLowMissWorkloads(t *testing.T) {
	io, ic := runBoth(t, "mesa", 100_000)
	if sp := ic.SpeedupOver(io); sp < -3 {
		t.Fatalf("mesa speedup = %.1f%%; iCFP must not hurt low-miss code", sp)
	}
}

func TestICFPRaisesMLP(t *testing.T) {
	io, ic := runBoth(t, "art", 150_000)
	if ic.DCacheMLP <= io.DCacheMLP {
		t.Fatalf("iCFP D$ MLP %.2f must exceed in-order %.2f", ic.DCacheMLP, io.DCacheMLP)
	}
	if ic.L2MLP <= io.L2MLP {
		t.Fatalf("iCFP L2 MLP %.2f must exceed in-order %.2f", ic.L2MLP, io.L2MLP)
	}
}

func TestChainedHopsAreLow(t *testing.T) {
	// §3.2: excess store buffer hops per load below 0.5 everywhere.
	for _, name := range []string{"ammp", "mcf", "gcc", "swim"} {
		_, ic := runBoth(t, name, 100_000)
		if ic.SBExtraHops > 0.5 {
			t.Errorf("%s: %.3f excess hops per load (paper bound 0.5)", name, ic.SBExtraHops)
		}
	}
}

func TestPoisonVectorsHelpDependentMisses(t *testing.T) {
	// §3.4: 8 poison bits let rallies skip instructions independent of the
	// returned miss; mcf benefits most.
	cfg := cfgForTest()
	cfg.WarmupInsts = 50_000
	one := cfg
	one.PoisonBits = 1
	r1 := New(one).Run(workload.SPEC("mcf", 250_000))
	r8 := New(cfg).Run(workload.SPEC("mcf", 250_000))
	if sp := r8.SpeedupOver(r1); sp < 0 {
		t.Fatalf("8-bit poison vectors slowed mcf by %.1f%%", -sp)
	}
}

func TestNonBlockingRallyBeatsBlocking(t *testing.T) {
	// Figure 7: non-blocking rallies are the biggest feature on
	// dependent-miss workloads.
	cfg := cfgForTest()
	cfg.WarmupInsts = 50_000
	blocking := cfg
	blocking.NonBlockingRally = false
	blocking.MultithreadRally = false
	blocking.PoisonBits = 1
	b := NewWithOptions(blocking, pipeline.TriggerAll, SBChained).Run(workload.SPEC("mcf", 250_000))
	nb := New(cfg).Run(workload.SPEC("mcf", 250_000))
	if nb.Cycles >= b.Cycles {
		t.Fatalf("non-blocking rallies (%d cycles) must beat blocking (%d) on mcf", nb.Cycles, b.Cycles)
	}
}

func TestStoreBufferModesOrdering(t *testing.T) {
	// Figure 8: limited <= chained <= ideal (chained within a whisker of
	// ideal).
	cfg := cfgForTest()
	cfg.WarmupInsts = 50_000
	run := func(mode SBMode) int64 {
		return NewWithOptions(cfg, pipeline.TriggerAll, mode).Run(workload.SPEC("swim", 200_000)).Cycles
	}
	lim, ch, id := run(SBLimited), run(SBChained), run(SBIdeal)
	if ch > lim {
		t.Fatalf("chained (%d) must not lose to limited (%d)", ch, lim)
	}
	if diff := float64(ch-id) / float64(id); diff > 0.02 {
		t.Fatalf("chained trails ideal by %.1f%% (paper: < 1%%)", diff*100)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := cfgForTest()
	cfg.WarmupInsts = 20_000
	a := New(cfg).Run(workload.SPEC("vpr", 100_000))
	b := New(cfg).Run(workload.SPEC("vpr", 100_000))
	if a.Cycles != b.Cycles || a.RallyInsts != b.RallyInsts {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/rally", a.Cycles, a.RallyInsts, b.Cycles, b.RallyInsts)
	}
}

func TestAdvanceCommitsAreCounted(t *testing.T) {
	_, ic := runBoth(t, "mcf", 150_000)
	if ic.Advances == 0 || ic.AdvanceInsts == 0 || ic.RallyPasses == 0 {
		t.Fatalf("mcf must exercise advance/rally: %+v", ic)
	}
	if ic.RallyPerKI < 100 {
		t.Fatalf("mcf rally/KI = %.0f; the paper reports thousands", ic.RallyPerKI)
	}
}

func TestValuesCheckedOnForwarding(t *testing.T) {
	// CheckValues is enabled in all these tests: a forwarding bug panics.
	// Run a store-forwarding-heavy workload to exercise it.
	_, _ = runBoth(t, "gcc", 100_000)
}

func TestExternalStoreSquash(t *testing.T) {
	// §3.3: an external store that hits the load signature while a
	// checkpoint is outstanding squashes to the checkpoint. The lone-L2
	// scenario keeps a checkpoint open for ~400 cycles; its filler loads
	// populate the signature.
	cfg := cfgForTest()
	w := workload.NewScenario(workload.ScenarioLoneL2)
	hot := uint64(0x9400_0000) // scnHot: read by the scenario's prelude? use filler addr

	// First, without conflicts.
	clean := New(cfg).Run(workload.NewScenario(workload.ScenarioLoneL2))
	if clean.Squashes != 0 {
		t.Fatalf("clean run squashed %d times", clean.Squashes)
	}

	// Now inject a conflicting store mid-advance. The scenario's loads hit
	// the warm line at scnHot... the ALU filler does not load, so probe an
	// address the trigger load touched: the miss address itself is read
	// from the cache only at rally time; instead probe broadly.
	m := New(cfg)
	m.ExternalStores = []ExternalStoreEvent{{Cycle: 100, Addr: 0x9000_0000}}
	dirty := m.Run(w)
	// The trigger load's address was inserted into the signature only if
	// it read the cache; a poisoned load defers, so a miss may not squash.
	// Either way the run must complete deterministically.
	if dirty.Insts != clean.Insts {
		t.Fatalf("external store corrupted execution: %d vs %d insts", dirty.Insts, clean.Insts)
	}
	_ = hot
}

func TestSignatureSquashOnVulnerableLoad(t *testing.T) {
	// Force a signature hit: run a workload whose advance-mode loads read
	// the cache (hot loads under a chase miss), then probe one such line.
	cfg := cfgForTest()
	cfg.WarmupInsts = 20_000
	m := New(cfg)
	// Probe a hot-region line repeatedly during the run; hot loads insert
	// into the signature during advance mode.
	for c := int64(1000); c < 400_000; c += 5_000 {
		m.ExternalStores = append(m.ExternalStores, ExternalStoreEvent{Cycle: c, Addr: 0x1000_0100})
	}
	r := m.Run(workload.SPEC("mcf", 120_000))
	if r.Squashes == 0 {
		t.Fatal("periodic conflicting external stores must cause squashes")
	}
}

// TestLateExternalStoresUnobservable pins that keeping the §3.3 load
// signature only while external-store events remain cannot be observed.
// A run whose events all come after its last cycle keeps the signature
// up to date throughout and never probes it; a run with no events never
// touches it. Both must report the same Result. The events probe
// addresses the run loads, so any event that fired early would squash.
func TestLateExternalStoresUnobservable(t *testing.T) {
	c, ok := workload.FuzzCorpusMember("all-d")
	if !ok {
		t.Fatal("corpus member all-d missing")
	}
	for _, tc := range []struct {
		name string
		w    func() *workload.Workload
	}{
		{"mcf", func() *workload.Workload { return workload.SPEC("mcf", 40_000) }},
		{c.Label, func() *workload.Workload { return workload.Fuzz(c.Seed, c.Knobs, 20_000) }},
	} {
		cfg := pipeline.DefaultConfig()
		cfg.WarmupInsts = 10_000
		clean := New(cfg).Run(tc.w())

		w := tc.w()
		m := New(cfg)
		var in isa.Inst
		for i := cfg.WarmupInsts; i < w.Trace.Len() && len(m.ExternalStores) < 64; i++ {
			if w.Trace.Decode(i, &in); in.Op == isa.OpLoad {
				// A full run measures from cycle 0, so it ends at cycle
				// clean.Cycles: every event falls after that.
				m.ExternalStores = append(m.ExternalStores,
					ExternalStoreEvent{Cycle: clean.Cycles + 1 + int64(len(m.ExternalStores)), Addr: in.Addr})
			}
		}
		if got := m.Run(w); got != clean {
			t.Errorf("%s: late external stores changed the result:\nnone: %+v\nlate: %+v", tc.name, clean, got)
		}
	}
}

// TestNoAdvanceIsInOrderShortWindow is the smallest window that showed
// the cycle loop's exit dropping the last staged instruction: 16
// measured eon instructions after a 50,000-instruction warmup, where
// iCFP advancing only on L2 misses never advances and so must time
// exactly like the in-order baseline (26 cycles; the dropped completion
// made it 25).
func TestNoAdvanceIsInOrderShortWindow(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 50_000
	w := workload.SPEC("eon", 50_016)
	io := inorder.New(cfg).Run(w)
	ic := NewWithOptions(cfg, pipeline.TriggerL2Only, SBChained).Run(w)
	if ic.Advances != 0 {
		t.Fatalf("iCFP-L2 advanced %d times; the repro needs a window without advance", ic.Advances)
	}
	if io.Cycles != 26 || ic.Cycles != io.Cycles {
		t.Errorf("16 eon instructions: iCFP-L2 %d cycles, in-order %d, want both 26", ic.Cycles, io.Cycles)
	}
}
