package sltp

import (
	"testing"

	"icfp/internal/inorder"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
	"icfp/internal/runahead"
	"icfp/internal/workload"
)

func cfgWarm(n int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = n
	return cfg
}

func TestLoneMissBeatsRunahead(t *testing.T) {
	// Figure 1a: SLTP commits miss-independent work and re-executes only
	// the slice, so it beats both in-order and Runahead on a lone miss.
	cfg := pipeline.DefaultConfig()
	io := inorder.New(cfg).Run(workload.NewScenario(workload.ScenarioLoneL2))
	ra := runahead.New(cfg).Run(workload.NewScenario(workload.ScenarioLoneL2))
	sl := New(cfg).Run(workload.NewScenario(workload.ScenarioLoneL2))
	if sl.Cycles > io.Cycles {
		t.Fatalf("SLTP %d must not lose to in-order %d on a lone miss", sl.Cycles, io.Cycles)
	}
	if sl.Cycles > ra.Cycles {
		t.Fatalf("SLTP %d must beat Runahead %d on a lone miss", sl.Cycles, ra.Cycles)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	io := inorder.New(cfg).Run(workload.NewScenario(workload.ScenarioIndependentL2))
	sl := New(cfg).Run(workload.NewScenario(workload.ScenarioIndependentL2))
	if float64(sl.Cycles) > 0.75*float64(io.Cycles) {
		t.Fatalf("SLTP %d must overlap independent misses (in-order %d)", sl.Cycles, io.Cycles)
	}
}

func TestBlockingRallyLimitsDependentMissWorkloads(t *testing.T) {
	// §2/§4: SLTP's single blocking rally serializes dependent misses, so
	// on mcf-like chains it trails a design with non-blocking rallies.
	cfg := cfgWarm(50_000)
	io := inorder.New(cfg).Run(workload.SPEC("mcf", 200_000))
	sl := New(cfg).Run(workload.SPEC("mcf", 200_000))
	sp := sl.SpeedupOver(io)
	if sp > 25 {
		t.Fatalf("SLTP mcf speedup %.1f%% is implausibly high for blocking rallies", sp)
	}
	if sp < -15 {
		t.Fatalf("SLTP mcf slowdown %.1f%% is implausibly low", sp)
	}
}

func TestSLTPHelpsStreamingWorkloads(t *testing.T) {
	// Figure 7 shows SLTP gaining substantially on swim/applu-like code.
	cfg := cfgWarm(50_000)
	io := inorder.New(cfg).Run(workload.SPEC("swim", 250_000))
	sl := New(cfg).Run(workload.SPEC("swim", 250_000))
	if sp := sl.SpeedupOver(io); sp < 10 {
		t.Fatalf("swim SLTP speedup = %.1f%%", sp)
	}
}

func TestAdvanceAndRallyStats(t *testing.T) {
	cfg := cfgWarm(50_000)
	r := New(cfg).Run(workload.SPEC("ammp", 250_000))
	if r.Advances == 0 || r.RallyPasses == 0 {
		t.Fatal("ammp must trigger SLTP episodes")
	}
	if r.RallyPasses != r.Advances {
		t.Fatalf("SLTP makes exactly one rally per episode: %d vs %d", r.RallyPasses, r.Advances)
	}
	if r.RallyInsts == 0 {
		t.Fatal("slices must re-execute")
	}
}

func TestRallyCheaperThanRunaheadReexecution(t *testing.T) {
	// SLTP re-executes only miss slices; Runahead re-executes everything.
	cfg := cfgWarm(50_000)
	sl := New(cfg).Run(workload.SPEC("ammp", 250_000))
	ra := runahead.New(cfg).Run(workload.SPEC("ammp", 250_000))
	if sl.RallyPerKI >= ra.RallyPerKI {
		t.Fatalf("SLTP rally/KI %.0f must be below Runahead's %.0f", sl.RallyPerKI, ra.RallyPerKI)
	}
}

func TestHarmlessOnLowMissCode(t *testing.T) {
	cfg := cfgWarm(20_000)
	io := inorder.New(cfg).Run(workload.SPEC("mesa", 120_000))
	sl := New(cfg).Run(workload.SPEC("mesa", 120_000))
	if d := sl.SpeedupOver(io); d < -5 {
		t.Fatalf("mesa SLTP = %.1f%%", d)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := cfgWarm(20_000)
	a := New(cfg).Run(workload.SPEC("equake", 120_000))
	b := New(cfg).Run(workload.SPEC("equake", 120_000))
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

// TestTriggerFollowsL2HitLat pins that the advance trigger's latency
// threshold is the configured L2 hit latency: an L2 miss returning 30
// cycles after issue starts an episode at the default 20-cycle L2 and
// not at a 40-cycle one, and an L2 hit never does.
func TestTriggerFollowsL2HitLat(t *testing.T) {
	miss := mem.Result{Done: 130, Level: mem.LevelMem}
	for _, tc := range []struct {
		l2Lat int
		acc   mem.Result
		want  bool
	}{
		{20, miss, true},
		{29, miss, true},
		{30, miss, false},
		{40, miss, false},
		{5, mem.Result{Done: 130, Level: mem.LevelL2}, false},
	} {
		cfg := New(pipeline.DefaultConfig()).cfg
		cfg.Hier.L2HitLat = tc.l2Lat
		r := &run{InOrder: pipeline.InOrder{Cfg: &cfg, LastIssue: 100}}
		if got := r.triggers(tc.acc); got != tc.want {
			t.Errorf("l2_hit_lat %d, access %+v issued at 100: triggers = %v, want %v", tc.l2Lat, tc.acc, got, tc.want)
		}
	}
}
