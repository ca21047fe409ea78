// Integration tests of the reproduction's evaluation (§5) on the
// synthetic SPEC2000 suite, and the helpers the root tests share. The
// evaluation's tables and figures themselves come from cmd/experiments.
package repro

import (
	"testing"

	"icfp/internal/inorder"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/stats"
	"icfp/internal/workload"
)

const (
	benchTimed = 150_000
	benchWarm  = 50_000
)

// The paper's machines: in-order, the baseline, and the four
// latency-tolerant designs compared against it.
var (
	inOrder     = spec.Machine{Model: spec.ModelInOrder}
	icfpMachine = spec.Machine{Model: spec.ModelICFP}
	fig5Models  = sim.PaperMachines()[1:]
)

func benchCfg() pipeline.Config {
	cfg := spec.BaseConfig()
	cfg.WarmupInsts = benchWarm
	return cfg
}

// newOn builds machine m on cfg.
func newOn(tb testing.TB, m spec.Machine, cfg pipeline.Config) spec.Runner {
	tb.Helper()
	r, err := m.NewOn(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// runSPEC simulates the named SPEC2000-profile benchmark on machine m,
// built on cfg, with benchTimed timed instructions after the warmup.
func runSPEC(tb testing.TB, m spec.Machine, cfg pipeline.Config, name string) pipeline.Result {
	tb.Helper()
	return newOn(tb, m, cfg).Run(workload.SPEC(name, cfg.WarmupInsts+benchTimed))
}

// geomeanSpeedup runs machine m over the given benchmarks and returns
// the geometric-mean percent speedup over in-order.
func geomeanSpeedup(tb testing.TB, m spec.Machine, cfg pipeline.Config, names []string) float64 {
	tb.Helper()
	ratios := make([]float64, 0, len(names))
	for _, name := range names {
		base := runSPEC(tb, inOrder, cfg, name)
		r := runSPEC(tb, m, cfg, name)
		ratios = append(ratios, float64(base.Cycles)/float64(r.Cycles))
	}
	return (stats.GeoMean(ratios) - 1) * 100
}

// TestEvaluationShape is the integration test of the reproduction: the
// qualitative claims of §5 must hold on the synthetic suite.
func TestEvaluationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite integration test")
	}
	cfg := benchCfg()
	geo := map[string]float64{}
	for _, m := range fig5Models {
		geo[m.Label] = geomeanSpeedup(t, m.Machine, cfg, workload.AllSPECNames)
	}
	t.Logf("geomean speedups: RA %+.1f%% MP %+.1f%% SLTP %+.1f%% iCFP %+.1f%%",
		geo["Runahead"], geo["Multipass"], geo["SLTP"], geo["iCFP"])

	// Claim 1: iCFP out-performs Runahead, Multipass and SLTP on average.
	for _, m := range []string{"Runahead", "Multipass", "SLTP"} {
		if geo["iCFP"] <= geo[m] {
			t.Errorf("iCFP geomean %.1f%% must beat %s %.1f%%", geo["iCFP"], m, geo[m])
		}
	}
	// Claim 2: every design helps on average (positive geomeans).
	for m, g := range geo {
		if g < 0 {
			t.Errorf("%s geomean %.1f%% must be positive", m, g)
		}
	}
	// Claim 3: high-miss benchmarks see speedups of 40%+ under iCFP.
	for _, name := range []string{"ammp", "art"} {
		base := runSPEC(t, inOrder, cfg, name)
		ic := runSPEC(t, icfpMachine, cfg, name)
		if sp := ic.SpeedupOver(base); sp < 40 {
			t.Errorf("%s iCFP speedup %.1f%%, paper reports 40%%+", name, sp)
		}
	}
}

// TestInOrderBaselineSanity pins the baseline's character: a low-miss
// benchmark runs near the machine's width-limited IPC, a memory-bound one
// runs far below it.
func TestInOrderBaselineSanity(t *testing.T) {
	cfg := benchCfg()
	mesa := inorder.New(cfg).Run(workload.SPEC("mesa", cfg.WarmupInsts+benchTimed))
	mcf := inorder.New(cfg).Run(workload.SPEC("mcf", cfg.WarmupInsts+benchTimed))
	if mesa.IPC() < 0.8 {
		t.Errorf("mesa in-order IPC %.2f too low", mesa.IPC())
	}
	if mcf.IPC() > 0.2 {
		t.Errorf("mcf in-order IPC %.2f too high for a chase-bound workload", mcf.IPC())
	}
}
