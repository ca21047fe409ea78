package sim

import (
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// icfpMachine is the full iCFP design at its paper defaults.
var icfpMachine = spec.Machine{Model: spec.ModelICFP}

func quickCfg() pipeline.Config {
	cfg := DefaultConfig()
	cfg.WarmupInsts = 30_000
	return cfg
}

// run simulates w on machine m built on cfg.
func run(t testing.TB, m spec.Machine, cfg pipeline.Config, w *workload.Workload) pipeline.Result {
	t.Helper()
	r, err := m.NewOn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Run(w)
}

// runSPEC simulates the named SPEC2000-profile benchmark on m with n
// timed instructions after cfg's warmup.
func runSPEC(t testing.TB, m spec.Machine, cfg pipeline.Config, name string, n int) pipeline.Result {
	t.Helper()
	return run(t, m, cfg, workload.SPEC(name, cfg.WarmupInsts+n))
}

func TestModelStrings(t *testing.T) {
	want := []struct{ label, model string }{
		{"in-order", spec.ModelInOrder}, {"Runahead", spec.ModelRunahead},
		{"Multipass", spec.ModelMultipass}, {"SLTP", spec.ModelSLTP}, {"iCFP", spec.ModelICFP},
	}
	pm := PaperMachines()
	if len(pm) != len(want) {
		t.Fatalf("%d paper machines, want five", len(pm))
	}
	for i, w := range want {
		if m := pm[i]; m.Label != w.label || m.Machine != (spec.Machine{Model: w.model}) {
			t.Errorf("machine %d = %q %+v, want %q on model %q", i, m.Label, m.Machine, w.label, w.model)
		}
	}
}

func TestRunAllModels(t *testing.T) {
	cfg := quickCfg()
	for _, m := range PaperMachines() {
		r := runSPEC(t, m.Machine, cfg, "equake", 100_000)
		if r.Cycles <= 0 || r.Insts < 100_000 || r.Insts > 100_200 {
			t.Fatalf("%s: cycles=%d insts=%d", m.Label, r.Cycles, r.Insts)
		}
	}
}

func TestICFPIsTheFastestOnHighMissFP(t *testing.T) {
	// The headline Figure 5 shape on one representative benchmark.
	cfg := quickCfg()
	icfp := runSPEC(t, icfpMachine, cfg, "ammp", 200_000).Cycles
	for _, m := range PaperMachines()[:4] {
		if c := runSPEC(t, m.Machine, cfg, "ammp", 200_000).Cycles; icfp >= c {
			t.Errorf("iCFP (%d) must beat %s (%d) on ammp", icfp, m.Label, c)
		}
	}
}

func TestSweepL2LatencyShape(t *testing.T) {
	// At higher L2 hit latencies, iCFP-all's advantage grows (Figure 6).
	machines := Figure6Machines()
	inOrder, icfpAll := machines[0], machines[len(machines)-1]
	if icfpAll.Label != "iCFP-all" {
		t.Fatalf("unexpected machine order: %s", icfpAll.Label)
	}
	var sp []float64
	for _, lat := range []int{10, 50} {
		cfg := quickCfg()
		cfg.Hier.L2HitLat = lat
		base := runSPEC(t, inOrder.Machine, cfg, "equake", 100_000)
		sp = append(sp, runSPEC(t, icfpAll.Machine, cfg, "equake", 100_000).SpeedupOver(base))
	}
	if sp[1] <= sp[0] {
		t.Fatalf("iCFP-all gain must grow with L2 latency: %.1f%% -> %.1f%%", sp[0], sp[1])
	}
}

func TestFeatureBuildMonotoneOnMcf(t *testing.T) {
	// Figure 7: each feature must help (or at least not hurt much) on a
	// dependent-miss workload; the full build must beat the first iCFP bar.
	cfg := quickCfg()
	builds := FeatureBuildConfigs()
	var first, last int64
	for i, b := range builds {
		if i == 0 {
			continue // SLTP baseline bar
		}
		r := runSPEC(t, b.Machine, cfg, "mcf", 150_000)
		if i == 1 {
			first = r.Cycles
		}
		last = r.Cycles
	}
	if last >= first {
		t.Fatalf("full iCFP (%d cycles) must beat the blocking-rally build (%d)", last, first)
	}
}

func TestStoreBufferConfigsComplete(t *testing.T) {
	sbs := StoreBufferConfigs()
	if len(sbs) != 3 {
		t.Fatalf("three designs expected, got %d", len(sbs))
	}
}
