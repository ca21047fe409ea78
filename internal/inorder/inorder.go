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
// the shared normal-mode issue step (pipeline.Staged) for every
// instruction, with the in-order store buffer's loads and stores.
func (m *Machine) Window(tr *isa.Trace, hier *mem.Hierarchy, pred *bpred.Predictor, meter *pipeline.Meter, start, meas, hi int) (int64, pipeline.Result) {
	cfg := m.cfg
	front := pipeline.NewFrontend(&cfg, hier, pred)
	slots := pipeline.NewSlotAlloc(&cfg)
	sb := pipeline.NewStoreBuffer(cfg.StoreBufEntries, hier)
	var board pipeline.Scoreboard

	var finish int64
	var lastIssue int64
	var mispredicts uint64
	var st pipeline.Staged
	in := &st.In
	for i := start; i < hi; i++ {
		if i == meas {
			meter.Cross(finish, pipeline.Result{BranchMispredicts: mispredicts})
		}
		st.Stage(front, tr, i)
		earliest := st.Earliest(&board, lastIssue)
		if in.Op == isa.OpStore {
			earliest = sb.FullUntil(earliest)
		}
		t := slots.Take(earliest, in.Op)
		lastIssue = t

		var done int64
		switch in.Op {
		case isa.OpLoad:
			if _, ok := sb.Forward(t, in.Addr); ok {
				done = t + int64(cfg.DCachePipe)
			} else {
				r := hier.Data(t, in.Addr, false)
				done = r.Done + int64(cfg.DCachePipe)
				if hit := t + int64(cfg.DCachePipe); done < hit {
					done = hit
				}
			}
		case isa.OpStore:
			sb.Insert(t, in.Addr, in.Val)
			done = t + 1
		default:
			done = t + int64(in.Op.ExecLatency())
		}
		board.WriteDst(in, done, 0, uint64(i))
		if st.Resolve(front, t) {
			mispredicts++
		}
		if done > finish {
			finish = done
		}
	}

	return finish, pipeline.Result{BranchMispredicts: mispredicts}
}
