package icfp

// Strict-vs-skip-ahead equivalence over the committed adversarial
// corpus: every store-pressure, branch-chain, miss-cluster and
// rally-starvation member the cross-model oracle (internal/diffcheck)
// gates is also strict-stepped here, so a skip-ahead or normal-mode
// divergence on a corpus pathology fails in the package that owns the
// bug.

import (
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

func TestStrictEquivalenceFuzzCorpus(t *testing.T) {
	for _, c := range workload.FuzzCorpus() {
		tc := strictCase{
			name: c.Label, cfg: pipeline.DefaultConfig,
			sb: SBChained, trig: pipeline.TriggerAll,
			w: func() *workload.Workload { return workload.Fuzz(c.Seed, c.Knobs, 6000) },
		}
		t.Run(c.Label, func(t *testing.T) {
			for _, pol := range []pipeline.SamplePolicy{{}, rampedWindows} {
				want := runPolicy(tc, true, pol)
				got := runPolicy(tc, false, pol)
				if got != want {
					t.Errorf("skip-ahead diverged from strict stepping on %s (sampling %+v):\nstrict: %+v\nskip:   %+v",
						c.Name(), pol, want, got)
				}
			}
		})
	}
}
