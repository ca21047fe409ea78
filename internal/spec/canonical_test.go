package spec_test

import (
	"math"
	"strings"
	"testing"

	"icfp/internal/exp/registry"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// checkMachine and checkWorkload fail t unless the direct canonical
// encoder agrees byte for byte with the reflective oracle.
func checkMachine(t *testing.T, ctx string, m spec.Machine) {
	t.Helper()
	if got, want := m.Canonical(), spec.OracleMachine(m); got != want {
		t.Errorf("%s: machine canonical\n got %s\nwant %s", ctx, got, want)
	}
}

func checkWorkload(t *testing.T, ctx string, w spec.Workload) {
	t.Helper()
	if got, want := w.Canonical(), spec.OracleWorkload(w); got != want {
		t.Errorf("%s: workload canonical\n got %s\nwant %s", ctx, got, want)
	}
}

// TestCanonicalMatchesOracleRegistry covers every job of every registry
// experiment at three sample sizes, full and under the default sampling
// policy: the keys of every result store and cache file in use.
func TestCanonicalMatchesOracleRegistry(t *testing.T) {
	jobs := 0
	for _, name := range registry.Names() {
		for _, n := range []int{2000, 20000, 400000} {
			for _, sampled := range []bool{false, true} {
				p := registry.DefaultParams()
				p.N = n
				if sampled {
					p.Sampling = registry.DefaultSampling(p.Cfg.WarmupInsts + n)
				}
				s, err := registry.Describe(name, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range s.Jobs {
					checkMachine(t, j.Name, j.Machine)
					checkWorkload(t, j.Name, j.Workload)
					jobs++
				}
			}
		}
	}
	if jobs == 0 {
		t.Fatal("registry described no jobs")
	}
}

// TestCanonicalMatchesOracleFuzzCorpus covers the fuzz corpus the way
// cmd/fuzzgate runs it: every member on every machine variant, full and
// sampled.
func TestCanonicalMatchesOracleFuzzCorpus(t *testing.T) {
	const n, warm = 60_000, 10_000
	ov := &spec.Overrides{Warmup: spec.Int(warm)}
	machines := []spec.Machine{
		{Model: spec.ModelInOrder, Overrides: ov},
		{Model: spec.ModelRunahead, Overrides: ov},
		{Model: spec.ModelMultipass, Overrides: ov},
		{Model: spec.ModelSLTP, Overrides: ov},
		{Model: spec.ModelICFP, Overrides: ov},
		{Model: spec.ModelICFP, StoreBuffer: spec.SBIdeal, Overrides: ov},
		{Model: spec.ModelICFP, StoreBuffer: spec.SBLimited, Overrides: ov},
		{Model: spec.ModelOOO, Overrides: ov},
	}
	for _, m := range machines {
		checkMachine(t, m.Model+"/"+m.StoreBuffer, m)
	}
	for _, c := range workload.FuzzCorpus() {
		w := spec.FuzzWorkload(c.Seed, c.Knobs, n)
		checkWorkload(t, c.Label, w)
		w.Sampling = registry.DefaultSampling(n)
		checkWorkload(t, c.Label+"/sampled", w)
	}
}

// TestCanonicalMatchesOracleEdgeCases covers what no validated spec
// holds but Canonical still encodes (error messages name unvalidated
// specs): integers beyond float64's exact range, negatives, empty and
// fully set overrides, collapsing sampling policies, and strings
// encoding/json escapes or repairs.
func TestCanonicalMatchesOracleEdgeCases(t *testing.T) {
	const p53 = int64(1) << 53
	for _, seed := range []int64{0, 1, -1, p53 - 1, p53, p53 + 1, p53 + 3, -p53, -p53 - 1,
		1<<62 + 1, math.MaxInt64, math.MinInt64, 123456789012345678} {
		w := spec.FuzzWorkload(seed, workload.FuzzKnobs{SBPressure: -3, RallyStarve: 7}, -5)
		checkWorkload(t, "fuzz seed", w)
		w.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 10, Period: 100, Warmup: -1, Ramp: 30, Seed: seed}
		checkWorkload(t, "sampling seed", w)
	}
	for _, n := range []int{math.MaxInt, math.MinInt, -1, int(p53) + 1} {
		checkWorkload(t, "n", spec.SPECWorkload("mcf", n))
	}

	empty := spec.Machine{Model: spec.ModelICFP, Overrides: &spec.Overrides{}}
	checkMachine(t, "empty overrides", empty)
	if c := empty.Canonical(); !strings.Contains(c, `"overrides":{}`) {
		t.Errorf("non-nil empty overrides lost from the identity: %s", c)
	}
	zero, no := 0, false
	all := &spec.Overrides{
		Width: spec.Int(-2), L2HitLat: spec.Int(1 << 60), MemLat: &zero, NumMSHRs: spec.Int(8),
		StreamBufs: &zero, StoreBufEntries: spec.Int(64), SliceEntries: spec.Int(128),
		ChainedSBEntries: spec.Int(256), ChainTableEntries: spec.Int(512), PoisonBits: spec.Int(3),
		RunaheadCache: spec.Int(1024), SRLEntries: spec.Int(32), ResultBufEntries: spec.Int(16),
		ROBEntries: spec.Int(math.MaxInt), BlockSecondaryD1: &no, MultithreadRally: spec.Bool(true),
		NonBlockingRally: &no, Warmup: spec.Int(math.MinInt),
	}
	checkMachine(t, "all overrides", spec.Machine{Model: spec.ModelOOO, CFP: true, Trigger: "x", StoreBuffer: "y", Overrides: all})
	checkMachine(t, "zero machine", spec.Machine{})
	for _, m := range []spec.Machine{
		{Model: spec.ModelICFP, Trigger: spec.TriggerAll, StoreBuffer: spec.SBChained},
		{Model: spec.ModelRunahead, Trigger: spec.TriggerL2},
		{Model: spec.ModelMultipass, Trigger: spec.TriggerPrimaryD1},
	} {
		checkMachine(t, "collapsing spelling", m)
	}

	for _, s := range []*spec.Sampling{
		{Mode: spec.ModeFull},
		{Mode: spec.ModeSampled, Interval: 5, Period: 5, Seed: 9},
		{Mode: "bogus", Interval: 3, Period: 9},
		{Mode: spec.ModeSampled, Interval: 5, Period: 5, Ramp: 1},
		{Mode: spec.ModeSampled},
	} {
		checkWorkload(t, "sampling "+s.Mode, spec.Workload{SPEC: "gcc", N: 1000, Sampling: s})
	}
	checkWorkload(t, "zero workload", spec.Workload{})
	checkWorkload(t, "zero fuzz", spec.Workload{Fuzz: &spec.Fuzz{}})
	checkWorkload(t, "every kind", spec.Workload{SPEC: "a", Scenario: "b", Fuzz: &spec.Fuzz{Seed: 4, BranchOnLoad: 1, MissCluster: 2}, N: 3})

	for _, s := range []string{
		"", "plain", "<script>&amp;</script>", `quote " and \ backslash`,
		"\x00\x01\x1f\n\r\t\b\f", "\x7f", "line sep \u2028 para sep \u2029", "\u00e9 \u2713 \U0001F642",
		"\xff\xfe", "a\x80b", "\xed\xa0\x80", "trunc\xe2\x82", "\ufffd",
	} {
		checkMachine(t, "string model", spec.Machine{Model: s, Trigger: s, StoreBuffer: s})
		checkWorkload(t, "string workload", spec.Workload{SPEC: s, Scenario: s})
		checkWorkload(t, "string sampling", spec.Workload{SPEC: "mcf", N: 10, Sampling: &spec.Sampling{Mode: s, Interval: 1, Period: 2}})
	}
}
