package exp_test

import (
	"math"
	"testing"
	"time"

	"icfp/internal/exp"
	"icfp/internal/spec"
)

// TestSampledDegenerateIsFullIdentity pins the canonical-identity rule:
// a sampling policy with no effect (period == interval, no warmup — it
// measures every instruction) canonicalizes away, so the job shares the
// full run's cache key, simulates once, and returns the identical
// result. This is what keeps every pre-sampling store record, golden, and
// dist identity valid.
func TestSampledDegenerateIsFullIdentity(t *testing.T) {
	mach := spec.Machine{Model: spec.ModelICFP, Overrides: &spec.Overrides{Warmup: spec.Int(5_000)}}
	full := exp.Job{Name: "full", Machine: mach, Workload: spec.SPECWorkload("mcf", 20_000)}
	deg := full
	deg.Name = "deg"
	deg.Workload.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 4_000, Period: 4_000}
	if full.Key() != deg.Key() {
		t.Fatalf("degenerate sampled key differs from full:\n%v\n%v", deg.Key(), full.Key())
	}
	explicit := full
	explicit.Name = "explicit"
	explicit.Workload.Sampling = &spec.Sampling{Mode: spec.ModeFull}
	if full.Key() != explicit.Key() {
		t.Fatal("explicit full-mode policy must share the bare workload's key")
	}

	cache := exp.NewCache()
	rs, err := exp.Run([]exp.Job{full, deg, explicit}, exp.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Simulations(); got != 1 {
		t.Fatalf("three spellings of one identity simulated %d times, want 1", got)
	}
	if rs.MustGet("full") != rs.MustGet("deg") || rs.MustGet("full") != rs.MustGet("explicit") {
		t.Fatal("degenerate sampled result differs from the full run")
	}
}

// TestSampledRunAllModels pins the harness dispatch seam: a live sampled
// workload reaches every model's RunSampled path and comes back carrying
// sampling statistics, while the full run of the same benchmark carries
// none — and both share one generated workload (and with it the
// warmed-state checkpoint store) through the arena.
func TestSampledRunAllModels(t *testing.T) {
	const n = 30_000
	warm := &spec.Overrides{Warmup: spec.Int(2_000)}
	wl := spec.SPECWorkload("mcf", n)
	swl := wl
	swl.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 1_000, Period: 7_000}

	cache := exp.NewCache()
	arenas := exp.CaptureArenas(t)
	var jobs []exp.Job
	for _, m := range spec.Models {
		mach := spec.Machine{Model: m, Overrides: warm}
		jobs = append(jobs,
			exp.Job{Name: m + "/full", Machine: mach, Workload: wl},
			exp.Job{Name: m + "/sampled", Machine: mach, Workload: swl})
	}
	rs, err := exp.Run(jobs, exp.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	arena := arenas()[0]
	if got := cache.Simulations(); got != 2*len(spec.Models) {
		t.Fatalf("simulated %d, want %d (sampled and full are distinct identities)", got, 2*len(spec.Models))
	}
	if got := arena.Generations(); got != 1 {
		t.Fatalf("generated %d workloads, want 1 (sampled and full share the base workload)", got)
	}
	for _, m := range spec.Models {
		f, s := rs.MustGet(m+"/full"), rs.MustGet(m+"/sampled")
		if f.SampleIntervals != 0 || f.SampleCPICI95 != 0 {
			t.Errorf("%s: full run carries sampling statistics: %+v", m, f)
		}
		if s.SampleIntervals < 2 {
			t.Errorf("%s: sampled run measured %d intervals, want >= 2", m, s.SampleIntervals)
		}
		if s.Insts >= f.Insts {
			t.Errorf("%s: sampled run measured %d insts, full %d; sampling must measure less", m, s.Insts, f.Insts)
		}
		if f.CPI() <= 0 || s.CPI() <= 0 {
			t.Fatalf("%s: non-positive CPI (full %v, sampled %v)", m, f.CPI(), s.CPI())
		}
		// A loose sanity band; the tight accuracy claim is pinned on a
		// long workload below, where sampling theory actually applies.
		if relErr := math.Abs(s.CPI()-f.CPI()) / f.CPI(); relErr > 0.25 {
			t.Errorf("%s: sampled CPI %v vs full %v (%.1f%% off)", m, s.CPI(), f.CPI(), 100*relErr)
		}
	}
}

// TestSampledSpeedupAndAccuracy is the acceptance run: on a workload two
// orders of magnitude past the unit-test norm, sampled mode must simulate
// >= 10x fewer instructions in detail than the full run on every model
// while estimating CPI within 1% — and within its own reported 95%
// interval, the statistical-honesty bar the harness exists to enforce.
// The detailed-instruction ratio is deterministic; the wall-clock
// speedup it buys swings with host load, so it is logged, not asserted.
//
// The warm-state checkpoint store is pre-populated by one untimed
// sampled run, mirroring a registry sweep: the arena shares the workload
// (and its attached checkpoints) across all jobs, so only the first run
// pays trace-replay warming and every later model clones.
func TestSampledSpeedupAndAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second acceptance run")
	}
	const n = 12_000_000
	full := spec.SPECWorkload("mcf", n)
	sampled := full
	// The ramp dominates each window's detailed stretch: the speculative
	// models' episodes perturb long-lived L2 state (wrong-path pollution
	// and prefetch benefit) that functional warming cannot recreate, and
	// the resulting transient takes tens of thousands of detailed
	// instructions to die out. A 60k ramp ahead of each 20k measured
	// interval keeps per-model bias under ~0.5% while twelve windows give
	// the CI honest width; the period keeps the detailed fraction at 8%,
	// leaving the >= 10x speedup margin. The seed picks one fixed
	// stratified-random placement (the run is deterministic either way).
	sampled.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 20_000, Period: 1_000_000, Ramp: 60_000, Seed: 3}

	arena := exp.NewArena()
	w := arena.Get(sampled) // shared with the full jobs: sampling is not part of the base identity
	pol := sampled.Sampling.Policy()

	newMachine := func(model string) spec.SampledRunner {
		r, err := spec.Machine{Model: model}.New()
		if err != nil {
			t.Fatal(err)
		}
		return r.(spec.SampledRunner)
	}
	// Untimed warm-store population.
	newMachine(spec.ModelInOrder).RunSampled(w, pol)

	for _, m := range spec.Models {
		t0 := time.Now()
		fres := newMachine(m).Run(w)
		tFull := time.Since(t0)
		t0 = time.Now()
		sres := newMachine(m).RunSampled(w, pol)
		tSampled := time.Since(t0)

		speedup := float64(tFull) / float64(tSampled)
		// The full run times every instruction past warmup; the sampled
		// run times its windows plus at most one ramp before each.
		detailed := sres.Insts + int64(sres.SampleIntervals*pol.Ramp)
		ratio := float64(fres.Insts) / float64(detailed)
		cpiErr := math.Abs(sres.CPI() - fres.CPI())
		relErr := cpiErr / fres.CPI()
		t.Logf("%-10s full %8v  sampled %8v  (%5.1fx wall, %4.1fx detailed insts)  CPI %.4f vs %.4f ±%.4f (%.3f%% off, %d windows)",
			m, tFull.Round(time.Millisecond), tSampled.Round(time.Millisecond), speedup, ratio,
			sres.CPI(), fres.CPI(), sres.SampleCPICI95, 100*relErr, sres.SampleIntervals)
		if ratio < 10 {
			t.Errorf("%s: full run simulates %.1fx the sampled run's detailed instructions (%d vs %d), want >= 10x", m, ratio, fres.Insts, detailed)
		}
		if relErr > 0.01 {
			t.Errorf("%s: sampled CPI %.4f vs full %.4f: %.3f%% error, want <= 1%%", m, sres.CPI(), fres.CPI(), 100*relErr)
		}
		if cpiErr > sres.SampleCPICI95 {
			t.Errorf("%s: CPI error %.5f outside the reported 95%% interval ±%.5f", m, cpiErr, sres.SampleCPICI95)
		}
	}
}

// TestWarmStateSharedAcrossTimingConfigs pins the warm-state series key
// at the model level: for every model, a sampled run under a machine
// that differs from an earlier one only in what functional warming never
// reads — L2 hit latency, memory latency, MSHRs, stream buffers — starts
// its windows from the earlier machine's masters (and recycled window
// buffers), and must still be byte-identical to the same run over a
// fresh workload, where its windows are warmed directly under its own
// configuration.
func TestWarmStateSharedAcrossTimingConfigs(t *testing.T) {
	const n = 30_000
	wl := spec.SPECWorkload("mcf", n)
	wl.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 1_000, Period: 7_000, Ramp: 400}
	for _, m := range spec.Models {
		a := spec.Machine{Model: m, Overrides: &spec.Overrides{Warmup: spec.Int(2_000)}}
		b := spec.Machine{Model: m, Overrides: &spec.Overrides{Warmup: spec.Int(2_000),
			L2HitLat: spec.Int(35), MemLat: spec.Int(250), NumMSHRs: spec.Int(8), StreamBufs: spec.Int(2)}}
		arenas := exp.CaptureArenas(t)
		shared, err := exp.Run([]exp.Job{{Name: "a", Machine: a, Workload: wl}, {Name: "b", Machine: b, Workload: wl}},
			exp.Parallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		arena := arenas()[0]
		direct, err := exp.Run([]exp.Job{{Name: "b", Machine: b, Workload: wl}})
		if err != nil {
			t.Fatal(err)
		}
		if arena.Generations() != 1 {
			t.Fatalf("%s: %d generations, want 1 (a and b share the workload)", m, arena.Generations())
		}
		if shared.MustGet("a") == shared.MustGet("b") {
			t.Fatalf("%s: machines a and b produced identical results; the timing overrides had no effect", m)
		}
		if got, want := shared.MustGet("b"), direct.MustGet("b"); got != want {
			t.Errorf("%s: run from masters warmed under another config differs from direct warming:\ngot  %+v\nwant %+v", m, got, want)
		}
	}
}
