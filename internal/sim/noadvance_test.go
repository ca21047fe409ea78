package sim

import (
	"testing"

	"icfp/internal/spec"
	"icfp/internal/workload"
)

// TestNoAdvanceIsInOrder runs every SPEC profile on each in-order-based
// machine that advances only under L2 misses. Outside advance mode each
// of them is the in-order pipeline, so a run that never advances must
// match the in-order baseline: Runahead, Multipass and SLTP share its
// normal-mode step and must report its whole Result; iCFP-L2 executes
// on its chained store buffer instead, and must take its cycles.
func TestNoAdvanceIsInOrder(t *testing.T) {
	cases := []struct {
		label     string
		m         spec.Machine
		cycleOnly bool
	}{
		{"iCFP-L2", spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerL2}, true},
		{"Runahead", spec.Machine{Model: spec.ModelRunahead}, false},
		{"Multipass-L2", spec.Machine{Model: spec.ModelMultipass, Trigger: spec.TriggerL2}, false},
		{"SLTP", spec.Machine{Model: spec.ModelSLTP}, false},
	}
	cfg := DefaultConfig()
	cfg.WarmupInsts = 7_500
	checked := make([]int, len(cases))
	for _, name := range workload.AllSPECNames {
		w := workload.SPEC(name, 20_000)
		io := run(t, spec.Machine{Model: spec.ModelInOrder}, cfg, w)
		for k, tc := range cases {
			got := run(t, tc.m, cfg, w)
			if got.Advances != 0 {
				continue
			}
			checked[k]++
			switch {
			case tc.cycleOnly && got.Cycles != io.Cycles:
				t.Errorf("%s on %s without advance took %d cycles, in-order %d", tc.label, name, got.Cycles, io.Cycles)
			case !tc.cycleOnly && got != io:
				t.Errorf("%s on %s without advance differs from in-order:\n%s: %+v\nin-order: %+v", tc.label, name, tc.label, got, io)
			}
		}
	}
	for k, tc := range cases {
		if checked[k] == 0 {
			t.Errorf("%s advanced on every profile: the test compared nothing", tc.label)
		}
		t.Logf("%s: %d of %d profiles ran without advance", tc.label, checked[k], len(workload.AllSPECNames))
	}
}
