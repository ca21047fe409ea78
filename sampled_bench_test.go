// Sampled-mode checks over a trace 20x the BenchmarkSimRate length.
// BenchmarkSampledRate reports each model's effective throughput under
// interval sampling: Minst/s of trace covered, fast-forward warming
// included.
//
//	go test -run '^$' -bench BenchmarkSampledRate -benchmem
//
// TestSampledRateError pins the CPI error of each model's sampled
// estimate against the full run of the same trace. Simulation and window
// placement are both deterministic, so the error is a fixed number per
// model and any change to it is an accuracy change.
package repro

import (
	"fmt"
	"math"
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// sampledErrPct is each model's sampled CPI error in percent, to the
// four significant digits the pin compares.
var sampledErrPct = map[string]float64{
	"in-order":  1.217,
	"Runahead":  0.7207,
	"Multipass": 0.3710,
	"SLTP":      4.449,
	"iCFP":      1.127,
}

// sampledSetup returns the sampled runs' workload and the registry's
// DefaultSampling shape on it: one window per twelfth of the trace, 2%
// of each stratum measured, a ramp three windows long.
func sampledSetup() (*workload.Workload, pipeline.SamplePolicy) {
	total := benchWarm + 20*benchTimed
	pol := pipeline.SamplePolicy{Interval: total / 600, Period: total / 12, Ramp: total / 200, Seed: 1}
	return workload.SPEC(simRateBench, total), pol
}

func BenchmarkSampledRate(b *testing.B) {
	cfg := benchCfg()
	w, pol := sampledSetup()
	for _, m := range sim.PaperMachines() {
		b.Run(m.Label, func(b *testing.B) {
			b.ReportAllocs()
			var insts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				newOn(b, m.Machine, cfg).(spec.SampledRunner).RunSampled(w, pol)
				insts += int64(w.Trace.Len())
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(insts)/secs/1e6, "Minst/s")
			}
		})
	}
}

func TestSampledRateError(t *testing.T) {
	cfg := benchCfg()
	w, pol := sampledSetup()
	for _, m := range sim.PaperMachines() {
		full := newOn(t, m.Machine, cfg).Run(w).CPI()
		est := newOn(t, m.Machine, cfg).(spec.SampledRunner).RunSampled(w, pol).CPI()
		errPct := 100 * math.Abs(est-full) / full
		if got, want := fmt.Sprintf("%.4g", errPct), fmt.Sprintf("%.4g", sampledErrPct[m.Label]); got != want {
			t.Errorf("%s: sampled CPI error %s%%, want %s%%", m.Label, got, want)
		}
	}
}
