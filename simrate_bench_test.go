// Simulator-throughput benchmarks: BenchmarkSimRate measures raw
// simulation speed per machine model — simulated instructions per second
// (Minst/s) and allocation per run (B/op via -benchmem) — over one shared
// pre-generated workload, so the numbers isolate the simulator hot loops
// from workload generation.
//
//	go test -run '^$' -bench BenchmarkSimRate -benchmem
//
// cmd/benchgate runs this suite, exports the measurements as a
// perf-trajectory JSON (BENCH_PR6.json holds the committed baseline), and
// gates CI on sim-rate and allocs/op regressions. See README.md
// "Performance".
package repro

import (
	"os"
	"testing"

	"icfp/internal/obs"
	"icfp/internal/sim"
	"icfp/internal/workload"
)

// simRateBench is the benchmark workload: equake exercises the rally and
// store-buffer machinery of every advance-mode model without mcf's
// pathological chase serialization, so rates are comparable across all
// five machines.
const simRateBench = "equake"

func BenchmarkSimRate(b *testing.B) {
	cfg := benchCfg()
	// With ICFP_BENCH_TELEMETRY set, every timed iteration also updates
	// the obs counters the production harness would — so the CI gate
	// measures sim rates with telemetry enabled and pins its cost inside
	// the regression tolerance. A nil registry keeps all of this as
	// no-ops in the default (untelemetered) run.
	var reg *obs.Registry
	if os.Getenv("ICFP_BENCH_TELEMETRY") != "" {
		reg = obs.NewRegistry()
	}
	// One shared read-only workload for every model and iteration; the
	// arena invariant (TestWorkloadImmutableAcrossModels) makes this safe
	// and keeps generation cost out of the measurement.
	w := workload.SPEC(simRateBench, cfg.WarmupInsts+benchTimed)
	for _, m := range sim.PaperMachines() {
		b.Run(m.Label, func(b *testing.B) {
			b.ReportAllocs()
			sims := reg.Counter("exp_simulations_total", "", "model", m.Label)
			simInsts := reg.Counter("exp_sim_instructions_total", "", "model", m.Label)
			var insts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := newOn(b, m.Machine, cfg).Run(w)
				insts += r.Insts
				sims.Inc()
				simInsts.Add(r.Insts)
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(insts)/secs/1e6, "Minst/s")
			}
		})
	}
}
