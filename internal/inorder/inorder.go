// Package inorder implements the baseline machine of the paper's
// evaluation: a 2-way superscalar, 10-stage, stall-on-use in-order
// pipeline. It does not stall on a cache miss itself — only on the first
// instruction that consumes a missing value (or on structural hazards),
// exactly the behaviour the paper's Figure 1 sketches with thick lines.
package inorder

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
)

// Machine is a baseline in-order pipeline.
type Machine struct {
	pipeline.Core
	cfg pipeline.Config
}

// New returns a baseline machine with the given configuration.
func New(cfg pipeline.Config) *Machine {
	m := &Machine{cfg: cfg}
	m.Core = pipeline.NewCore(&m.cfg, true, m)
	return m
}

// Window is the in-order pipeline's window loop (pipeline.WindowLoop):
// pipeline.InOrder's step for every instruction, retiring the misses it
// hands back at once, since the baseline never advances.
func (m *Machine) Window(tr *isa.Trace, hier *mem.Hierarchy, pred *bpred.Predictor, meter *pipeline.Meter, start, meas, hi int) (int64, pipeline.Result) {
	p := pipeline.NewInOrder(&m.cfg, tr, hier, pred)
	for i := start; i < hi; i++ {
		if i == meas {
			meter.Cross(p.Finish, p.Res)
		}
		if _, done, miss := p.Step(i, false); miss {
			p.Retire(i, p.LastIssue, done)
		}
	}
	return p.Finish, p.Res
}
