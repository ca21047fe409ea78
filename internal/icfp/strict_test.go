package icfp

// Strict-vs-skip-ahead equivalence: the cycle loop with event-horizon
// skip-ahead (nextEvent) must report results identical to the trivially
// correct strict loop that steps one cycle at a time. Any divergence
// means a state change escaped the pipeline.Horizon contract (an event
// that fired without a covering Observe), so these tests run the exact
// same machine twice and require the full Result struct to match —
// cycles, advance/rally counts, forwarding stats, everything. The strict
// run sets pipeline.Strict, the one switch the runahead and sltp suites
// flip too.

import (
	"testing"

	"icfp/internal/isa"
	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

// strictCase is one adversarial machine/workload combination.
type strictCase struct {
	name string
	cfg  func() pipeline.Config
	sb   SBMode
	trig pipeline.AdvanceTrigger
	w    func() *workload.Workload
}

// tinySB squeezes the chained store buffer so drains, SB overflows and
// simple-runahead transitions fire constantly.
func tinySB() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.ChainedSBEntries = 4
	cfg.ChainTableEntries = 2
	cfg.StoreBufEntries = 2
	return cfg
}

// tinySBTwoMemPorts is tinySB with a second memory port: a store that
// finds the buffer full has taken a slot it then gives up, and the retry
// must wait for the next cycle even though a port is still free in this
// one.
func tinySBTwoMemPorts() pipeline.Config {
	cfg := tinySB()
	cfg.MemFPBrPorts = 2
	return cfg
}

// tinySlice forces slice overflows and pass churn with a starved poison
// pool.
func tinySlice() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.SliceEntries = 4
	cfg.PoisonBits = 1
	return cfg
}

// singleThreaded turns off multithreaded rallies so passes own the pipe.
func singleThreaded() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.MultithreadRally = false
	cfg.NonBlockingRally = false
	return cfg
}

func spec(name string, n int) func() *workload.Workload {
	return func() *workload.Workload {
		w := workload.SPEC(name, n)
		return w
	}
}

func scenario(sc workload.Scenario) func() *workload.Workload {
	return func() *workload.Workload { return workload.NewScenario(sc) }
}

func strictCases() []strictCase {
	deflt := pipeline.DefaultConfig
	cases := []strictCase{
		// Figure 1 miss patterns under the full machine.
		{"chains-default", deflt, SBChained, pipeline.TriggerAll, scenario(workload.ScenarioChains)},
		{"dependent-l2", deflt, SBChained, pipeline.TriggerAll, scenario(workload.ScenarioDependentL2)},
		{"dmiss-dep-l2", deflt, SBChained, pipeline.TriggerAll, scenario(workload.ScenarioD1DependentL2)},
		// Pathological store-buffer pressure: every few stores force a
		// drain stall or an overflow transition.
		{"mcf-tiny-sb", tinySB, SBChained, pipeline.TriggerAll, spec("mcf", 4000)},
		{"equake-tiny-sb-limited", tinySB, SBLimited, pipeline.TriggerAll, spec("equake", 4000)},
		// Branch-on-load chains: gcc's branchy profile with a starved
		// slice buffer and one poison bit maximizes squashes and
		// re-poisoning.
		{"gcc-tiny-slice", tinySlice, SBChained, pipeline.TriggerAll, spec("gcc", 4000)},
		{"mcf-single-thread", singleThreaded, SBChained, pipeline.TriggerAll, spec("mcf", 4000)},
		// Trigger variants exercise different advance entry points.
		{"equake-l2-only", deflt, SBChained, pipeline.TriggerL2Only, spec("equake", 4000)},
		{"equake-ideal-sb", deflt, SBIdeal, pipeline.TriggerPrimaryD1, spec("equake", 4000)},
		// Figure 8's limited-forwarding buffer at its default size: a
		// load stalled on a colliding store (stallSSN) leaves the
		// normal-mode path for the cycle loop until the store drains.
		// Under the L2-only trigger most of the run is normal mode.
		{"mcf-limited", deflt, SBLimited, pipeline.TriggerAll, spec("mcf", 4000)},
		{"gcc-limited-l2-only", deflt, SBLimited, pipeline.TriggerL2Only, spec("gcc", 4000)},
		{"twolf-l2-only", deflt, SBChained, pipeline.TriggerL2Only, spec("twolf", 4000)},
		{"mcf-tiny-sb-two-mem-ports", tinySBTwoMemPorts, SBChained, pipeline.TriggerL2Only, spec("mcf", 4000)},
	}
	return cases
}

func runOnce(tc strictCase, strict bool) pipeline.Result {
	return runPolicy(tc, strict, pipeline.SamplePolicy{})
}

// runPolicy runs tc under the sampling policy pol, strict-stepped or
// not.
func runPolicy(tc strictCase, strict bool, pol pipeline.SamplePolicy) pipeline.Result {
	prev := pipeline.Strict
	pipeline.Strict = strict
	defer func() { pipeline.Strict = prev }()
	cfg := tc.cfg()
	cfg.WarmupInsts = 500
	m := NewWithOptions(cfg, tc.trig, tc.sb)
	return m.RunSampled(tc.w(), pol)
}

func TestStrictEquivalence(t *testing.T) {
	for _, tc := range strictCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := runOnce(tc, true)
			got := runOnce(tc, false)
			if got != want {
				t.Errorf("skip-ahead diverged from strict stepping:\nstrict: %+v\nskip:   %+v", want, got)
			}
		})
	}
}

// TestStrictEquivalenceExternalStores covers the coherence-probe event
// stream, the one skip-ahead source that arrives from outside the core.
func TestStrictEquivalenceExternalStores(t *testing.T) {
	run := func(strict bool) pipeline.Result {
		prev := pipeline.Strict
		pipeline.Strict = strict
		defer func() { pipeline.Strict = prev }()
		cfg := pipeline.DefaultConfig()
		cfg.WarmupInsts = 500
		m := New(cfg)
		m.ExternalStores = []ExternalStoreEvent{
			{Cycle: 100, Addr: 0x9000_0000},
			{Cycle: 900, Addr: 0x9200_0000},
			{Cycle: 2500, Addr: 0x9000_0040},
		}
		return m.Run(workload.SPEC("mcf", 4000))
	}
	want := run(true)
	got := run(false)
	if got != want {
		t.Errorf("skip-ahead diverged with external stores:\nstrict: %+v\nskip:   %+v", want, got)
	}
}

// rampedWindows samples short windows, each behind a detailed ramp of
// 300 instructions: every window's loop crosses the meter mid-run, and
// on branch-on-load corpus members (bl-heavy, bl-under-sb, mc-moderate,
// mc-extreme, mc-branchy, all-c) a rally squash after the crossing
// rewinds the tail below it.
var rampedWindows = pipeline.SamplePolicy{Interval: 200, Period: 600, Ramp: 300, Seed: 1}

// TestStrictEquivalenceSampled runs the adversarial cases in ramped
// sampled windows.
func TestStrictEquivalenceSampled(t *testing.T) {
	for _, tc := range strictCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := runPolicy(tc, true, rampedWindows)
			got := runPolicy(tc, false, rampedWindows)
			if got != want {
				t.Errorf("skip-ahead diverged from strict stepping on sampled windows:\nstrict: %+v\nskip:   %+v", want, got)
			}
		})
	}
}

// TestStrictEquivalenceExternalStoresNormalMode replays probes of
// addresses the run loads, spread over the whole run, under a trigger
// that leaves most of it in normal mode: probes that arrive in normal
// mode are popped without effect, loads record the signature only while
// probes remain, and probes that arrive in advance mode squash.
func TestStrictEquivalenceExternalStoresNormalMode(t *testing.T) {
	const warm = 500
	w := workload.SPEC("art", 4000)
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = warm
	base := NewWithOptions(cfg, pipeline.TriggerL2Only, SBChained).Run(w)
	cpi := float64(base.Cycles) / float64(base.Insts)
	// Every seventh instruction that is a load is probed about when the
	// unprobed run reaches it.
	var events []ExternalStoreEvent
	var in isa.Inst
	for i := warm; i < w.Trace.Len(); i += 7 {
		if w.Trace.Decode(i, &in); in.Op == isa.OpLoad {
			events = append(events, ExternalStoreEvent{Cycle: int64(float64(i-warm)*cpi) + 30, Addr: in.Addr})
		}
	}
	run := func(strict bool) pipeline.Result {
		prev := pipeline.Strict
		pipeline.Strict = strict
		defer func() { pipeline.Strict = prev }()
		m := NewWithOptions(cfg, pipeline.TriggerL2Only, SBChained)
		m.ExternalStores = events
		return m.Run(w)
	}
	want := run(true)
	got := run(false)
	if got != want {
		t.Errorf("skip-ahead diverged with external stores in normal mode:\nstrict: %+v\nskip:   %+v", want, got)
	}
	if want.Squashes == 0 || int64(want.Advances) > want.Insts/100 {
		t.Errorf("%d squashes, %d advances over %d instructions: want probes that squash in a run mostly in normal mode",
			want.Squashes, want.Advances, want.Insts)
	}
}
