package registry_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/spec"
)

// isInOrderKey reports whether a memoization key names the in-order
// machine (keys are canonical machine specs).
func isInOrderKey(k exp.Key) bool {
	return strings.Contains(k.Machine, `"model":"in-order"`)
}

// tinyParams keeps the full registry fast enough for tests while still
// simulating every experiment for real.
func tinyParams() registry.Params {
	cfg := spec.BaseConfig()
	cfg.WarmupInsts = 1_000
	return registry.Params{Cfg: cfg, N: 2_000}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig5", "fig5s", "table2", "fig6", "fig7", "fig8", "hops", "poison", "area", "ooo", "ablate", "fuzz"}
	if got := registry.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	for _, name := range want {
		e, ok := registry.Lookup(name)
		if !ok || e.Name != name || e.Desc == "" || e.Print == nil || e.Suite == nil {
			t.Errorf("experiment %q incomplete: %+v", name, e)
		}
	}
	if _, ok := registry.Lookup("nope"); ok {
		t.Error("Lookup must reject unknown names")
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, err := registry.Run([]string{"nope"}, tinyParams()); err == nil {
		t.Fatal("Run of an unknown experiment must fail")
	}
}

// TestFullRegistryDeterministicAcrossParallelism is the harness's core
// guarantee: a serial run and an 8-worker run of every experiment in the
// registry produce deep-equal result sets and byte-identical reports.
func TestFullRegistryDeterministicAcrossParallelism(t *testing.T) {
	p := tinyParams()
	var out1, out8 bytes.Buffer
	sets1, err := registry.Report(&out1, registry.Names(), p, exp.Parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	sets8, err := registry.Report(&out8, registry.Names(), p, exp.Parallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sets1, sets8) {
		t.Error("result sets differ between parallelism 1 and 8")
	}
	if !bytes.Equal(out1.Bytes(), out8.Bytes()) {
		t.Error("rendered reports differ between parallelism 1 and 8")
	}
	for _, name := range registry.Names() {
		if _, ok := sets1[name]; !ok {
			t.Errorf("no result set for %q", name)
		}
	}
}

// TestSharedBaselinesSimulateOnce pins the memoization win: fig5 and
// table2 run the in-order baseline over the same benchmarks with the
// same configuration, so a combined run must simulate each baseline
// exactly once.
func TestSharedBaselinesSimulateOnce(t *testing.T) {
	p := tinyParams()
	counts := map[exp.Key]int{}
	_, err := registry.Run([]string{"fig5", "table2"}, p,
		exp.Parallelism(4), exp.OnRun(func(k exp.Key) { counts[k]++ }))
	if err != nil {
		t.Fatal(err)
	}
	baselines := 0
	for k, n := range counts {
		if n != 1 {
			t.Errorf("key %v simulated %d times, want 1", k, n)
		}
		if isInOrderKey(k) {
			baselines++
		}
	}
	// One in-order run per benchmark, shared by both experiments.
	if want := 24; baselines != want {
		t.Errorf("in-order baselines simulated %d times, want %d (once per benchmark)", baselines, want)
	}
}

func TestReportRendersEveryExperiment(t *testing.T) {
	var out bytes.Buffer
	_, err := registry.Report(&out, []string{"table1", "area"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"== Table 1:", "== §5.3: area overheads"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("report missing %q:\n%s", marker, out.String())
		}
	}
}
