// Simulator-throughput checks over one shared pre-generated workload, so
// the numbers isolate the simulator hot loops from workload generation.
//
// BenchmarkSimRate reports each machine's simulated instructions per
// second (Minst/s) and allocation per run (-benchmem), and fails when a
// model's rate relative to in-order in the same run falls more than 20%
// below its reference ratio:
//
//	go test -run '^$' -bench BenchmarkSimRate -benchmem
//
// TestSimRateAllocs pins each machine's allocations per run on the same
// workload; it needs no timing loop, so it runs with go test. Whole-run
// and per-layer timings live in the bench/ module (BENCHMARK.json).
package repro

import (
	"testing"

	"icfp/internal/sim"
	"icfp/internal/workload"
)

// simRateBench is the benchmark workload: equake exercises the rally and
// store-buffer machinery of every advance-mode model without mcf's
// pathological chase serialization, so rates are comparable across all
// five machines.
const simRateBench = "equake"

// simRateRatios is each model's reference Minst/s as a fraction of
// in-order's in the same run, and simRateSlack the fraction it may fall
// below it. A ratio is hardware-independent: it moves only when one
// machine's machinery gets slower relative to the others.
var simRateRatios = map[string]float64{
	"Runahead":  0.775,
	"Multipass": 0.592,
	"SLTP":      0.830,
	"iCFP":      0.567,
}

const simRateSlack = 0.20

// simRateAllocs is each model's allocations per run on the
// BenchmarkSimRate workload, and simRateAllocSlack the fraction it may
// grow. Allocation counts are deterministic, so the bound is exact.
var simRateAllocs = map[string]float64{
	"in-order":  57,
	"Runahead":  68,
	"Multipass": 69,
	"SLTP":      69,
	"iCFP":      76,
}

const simRateAllocSlack = 0.20

func BenchmarkSimRate(b *testing.B) {
	cfg := benchCfg()
	// One shared read-only workload for every model and iteration; the
	// arena invariant (TestWorkloadImmutableAcrossModels) makes this safe.
	w := workload.SPEC(simRateBench, benchWarm+benchTimed)
	rates := map[string]float64{}
	for _, m := range sim.PaperMachines() {
		b.Run(m.Label, func(b *testing.B) {
			b.ReportAllocs()
			var insts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insts += newOn(b, m.Machine, cfg).Run(w).Insts
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				rates[m.Label] = float64(insts) / secs / 1e6
				b.ReportMetric(rates[m.Label], "Minst/s")
			}
		})
	}
	// A -bench filter that skips in-order leaves nothing to divide by.
	ref, ok := rates["in-order"]
	if !ok {
		return
	}
	for model, want := range simRateRatios {
		rate, ok := rates[model]
		if !ok {
			continue
		}
		if got := rate / ref; got < want*(1-simRateSlack) {
			b.Errorf("%s runs at %.3fx in-order's rate, below its reference %.3fx by more than %.0f%%",
				model, got, want, simRateSlack*100)
		}
	}
}

func TestSimRateAllocs(t *testing.T) {
	cfg := benchCfg()
	w := workload.SPEC(simRateBench, benchWarm+benchTimed)
	for _, m := range sim.PaperMachines() {
		got := testing.AllocsPerRun(2, func() { newOn(t, m.Machine, cfg).Run(w) })
		want := simRateAllocs[m.Label]
		if limit := want * (1 + simRateAllocSlack); got > limit {
			t.Errorf("%s: %.0f allocs per run, over %.0f (%.0f + %.0f%%)",
				m.Label, got, limit, want, simRateAllocSlack*100)
		}
	}
}
