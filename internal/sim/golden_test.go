package sim

import (
	"bytes"
	"testing"

	"icfp/internal/spec"
	"icfp/internal/workload"
)

// TestGoldenDeterminism pins exact cycle counts for a handful of
// (machine, benchmark) pairs. Simulation is fully deterministic, so any
// change to these numbers means a behavioural change in the simulator —
// intentional changes should update the table (and re-examine
// EXPERIMENTS.md).
func TestGoldenDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInsts = 20_000
	const timed = 80_000

	pm := PaperMachines()
	inOrder, runahead, multipass, sltp, icfp := pm[0], pm[1], pm[2], pm[3], pm[4]
	golden := []struct {
		m      Labeled
		bench  string
		cycles int64
	}{
		{inOrder, "equake", 116192},
		{runahead, "equake", 113803},
		{icfp, "equake", 90951},
		{inOrder, "mcf", 1050961},
		{sltp, "mcf", 1005754},
		{icfp, "mcf", 793815},
		{multipass, "swim", 181269},
		{icfp, "swim", 108373},
	}
	got := make([]int64, len(golden))
	for i, g := range golden {
		got[i] = runSPEC(t, g.m.Machine, cfg, g.bench, timed).Cycles
		if got[i] != g.cycles {
			t.Errorf("%s/%s: %d cycles, golden %d", g.m.Label, g.bench, got[i], g.cycles)
		}
		// Cross-run stability: a second identical run must reproduce
		// the number bit for bit.
		if again := runSPEC(t, g.m.Machine, cfg, g.bench, timed).Cycles; again != got[i] {
			t.Errorf("%s/%s: %d then %d — simulation is not deterministic", g.m.Label, g.bench, got[i], again)
		}
	}

	// Relative invariants that must never regress silently, even when
	// the table is refreshed.
	if !(got[2] < got[1] && got[1] <= got[0]) {
		t.Errorf("equake ordering broken: iCFP %d, RA %d, in-order %d", got[2], got[1], got[0])
	}
	if got[5] >= got[3] {
		t.Errorf("mcf: iCFP %d must beat in-order %d", got[5], got[3])
	}
}

// TestSerializedTraceSimulatesIdentically round-trips a workload through
// the binary codec and checks the simulator produces bit-identical
// results — the property that makes trace files usable as regression
// baselines.
func TestSerializedTraceSimulatesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInsts = 20_000
	cfg.CheckValues = true

	for _, name := range []string{"mcf", "swim"} {
		orig := workload.SPEC(name, cfg.WarmupInsts+60_000)
		var buf bytes.Buffer
		if err := workload.WriteTrace(&buf, orig); err != nil {
			t.Fatal(err)
		}
		loaded, err := workload.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// The loaded workload lacks the generator's Prewarm hook; compare
		// against the original run without it too.
		orig.Prewarm = nil
		for _, m := range []spec.Machine{{Model: spec.ModelInOrder}, icfpMachine} {
			a := run(t, m, cfg, orig)
			b := run(t, m, cfg, loaded)
			if a.Cycles != b.Cycles || a.Insts != b.Insts {
				t.Errorf("%s/%s: original %d cycles, round-tripped %d", m.Model, name, a.Cycles, b.Cycles)
			}
		}
	}
}
