// Sampled-mode benchmark: BenchmarkSampledRate runs each model's
// interval-sampled path over a trace 20x the BenchmarkSimRate length and
// reports effective throughput — Minst/s of trace covered, fast-forward
// warming included — plus the CPI error of the sampled estimate against
// the full run of the same trace as the "errpct" metric. Simulation and
// window placement are both deterministic, so errpct is a stable number
// per model: cmd/benchgate records it in the trajectory's "sampled"
// section and gates accuracy regressions exactly like rate regressions.
//
//	go test -run '^$' -bench BenchmarkSampledRate -benchmem
package repro

import (
	"math"
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

func BenchmarkSampledRate(b *testing.B) {
	cfg := benchCfg()
	total := cfg.WarmupInsts + 20*benchTimed
	// The registry's DefaultSampling shape: one window per twelfth of the
	// trace, 2% of each stratum measured, a ramp three windows long.
	pol := pipeline.SamplePolicy{Interval: total / 600, Period: total / 12, Ramp: total / 200, Seed: 1}
	w := workload.SPEC(simRateBench, total)
	for _, m := range sim.PaperMachines() {
		full := newOn(b, m.Machine, cfg).Run(w)
		b.Run(m.Label, func(b *testing.B) {
			b.ReportAllocs()
			var insts int64
			var errpct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := newOn(b, m.Machine, cfg).(spec.SampledRunner).RunSampled(w, pol)
				insts += int64(w.Trace.Len())
				errpct = 100 * math.Abs(r.CPI()-full.CPI()) / full.CPI()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(insts)/secs/1e6, "Minst/s")
			}
			b.ReportMetric(errpct, "errpct")
		})
	}
}
