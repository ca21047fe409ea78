// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5). Each benchmark runs the experiment's
// simulations and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. Sample sizes are scaled down from the
// interactive cmd/experiments defaults to keep the harness fast; run
// cmd/experiments for full-size tables.
package repro

import (
	"fmt"
	"testing"

	"icfp/internal/area"
	"icfp/internal/icfp"
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

// BenchmarkFigure5 regenerates the headline comparison: geometric-mean
// speedup over in-order for each of the four latency-tolerant designs.
// Paper values: Runahead 11%, Multipass 11%, SLTP 9%, iCFP 16%.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchCfg()
	for _, m := range fig5Models {
		b.Run(m.Label, func(b *testing.B) {
			var geo float64
			for i := 0; i < b.N; i++ {
				geo = geomeanSpeedup(b, m.Machine, cfg, workload.AllSPECNames)
			}
			b.ReportMetric(geo, "speedup%")
		})
	}
}

// BenchmarkTable2 regenerates the diagnostics for three representative
// benchmarks: art (independent misses), swim (streams), mcf (chains).
func BenchmarkTable2(b *testing.B) {
	cfg := benchCfg()
	for _, name := range []string{"art", "swim", "mcf"} {
		b.Run(name, func(b *testing.B) {
			var io, ic pipeline.Result
			for i := 0; i < b.N; i++ {
				io = runSPEC(b, inOrder, cfg, name)
				ic = runSPEC(b, icfpMachine, cfg, name)
			}
			b.ReportMetric(io.DCacheMissPerKI, "D$miss/KI")
			b.ReportMetric(io.L2MissPerKI, "L2miss/KI")
			b.ReportMetric(ic.DCacheMLP, "iCFP-dMLP")
			b.ReportMetric(ic.L2MLP, "iCFP-l2MLP")
			b.ReportMetric(ic.RallyPerKI, "rally/KI")
		})
	}
}

// BenchmarkFigure6 regenerates the L2 hit-latency sensitivity sweep on
// the equake profile for the two extreme configurations.
func BenchmarkFigure6(b *testing.B) {
	cfg := benchCfg()
	machines := sim.Figure6Machines()
	for _, m := range []sim.Labeled{machines[1], machines[5]} { // RA-L2, iCFP-all
		for _, lat := range []int{10, 50} {
			b.Run(fmt.Sprintf("%s/l2lat=%d", m.Label, lat), func(b *testing.B) {
				cl := cfg
				cl.Hier.L2HitLat = lat
				var sp float64
				for i := 0; i < b.N; i++ {
					base := runSPEC(b, inOrder, cl, "equake")
					sp = runSPEC(b, m.Machine, cl, "equake").SpeedupOver(base)
				}
				b.ReportMetric(sp, "speedup%")
			})
		}
	}
}

// BenchmarkFigure7 regenerates the iCFP feature build on mcf, the
// benchmark where non-blocking rallies matter most.
func BenchmarkFigure7(b *testing.B) {
	cfg := benchCfg()
	base := runSPEC(b, inOrder, cfg, "mcf")
	for _, build := range sim.FeatureBuildConfigs() {
		b.Run(build.Label, func(b *testing.B) {
			var r pipeline.Result
			for i := 0; i < b.N; i++ {
				r = runSPEC(b, build.Machine, cfg, "mcf")
			}
			b.ReportMetric(r.SpeedupOver(base), "speedup%")
		})
	}
}

// BenchmarkFigure8 regenerates the store-buffer design comparison on swim.
func BenchmarkFigure8(b *testing.B) {
	cfg := benchCfg()
	base := runSPEC(b, inOrder, cfg, "swim")
	for _, sb := range sim.StoreBufferConfigs() {
		b.Run(sb.Label, func(b *testing.B) {
			var r pipeline.Result
			for i := 0; i < b.N; i++ {
				r = runSPEC(b, sb.Machine, cfg, "swim")
			}
			b.ReportMetric(r.SpeedupOver(base), "speedup%")
			b.ReportMetric(r.SBExtraHops, "extra-hops")
		})
	}
}

// BenchmarkPoisonVectors regenerates the §3.4 poison-width study on mcf.
// Paper: 8 bits gain ~6% over 1 bit on mcf.
func BenchmarkPoisonVectors(b *testing.B) {
	for _, bits := range []int{1, 8} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			cfg := benchCfg()
			cfg.PoisonBits = bits
			var r pipeline.Result
			for i := 0; i < b.N; i++ {
				r = runSPEC(b, icfpMachine, cfg, "mcf")
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
		})
	}
}

// BenchmarkAreaModel regenerates the §5.3 overhead estimates.
func BenchmarkAreaModel(b *testing.B) {
	for _, d := range area.AllDesigns() {
		b.Run(d.Name, func(b *testing.B) {
			var mm2 float64
			for i := 0; i < b.N; i++ {
				mm2 = d.Total()
			}
			b.ReportMetric(mm2*1000, "mm2/1000")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// instructions per second) for the heaviest machine, as an engineering
// figure of merit for the harness itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchCfg()
	w := workload.SPEC("equake", cfg.WarmupInsts+benchTimed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newOn(b, icfpMachine, cfg).Run(w)
		b.SetBytes(r.Insts) // "bytes" = simulated instructions
	}
}

// BenchmarkScenarios runs the six Figure 1 micro-scenarios on iCFP.
func BenchmarkScenarios(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	for _, sc := range workload.AllScenarios {
		b.Run(string(sc), func(b *testing.B) {
			var r pipeline.Result
			for i := 0; i < b.N; i++ {
				r = icfp.New(cfg).Run(workload.NewScenario(sc))
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
		})
	}
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
