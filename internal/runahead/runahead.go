// Package runahead implements Runahead execution (Dundas & Mudge, ICS'97;
// Mutlu et al., HPCA'03) on the baseline in-order pipeline, and — via a
// result buffer that saves miss-independent results to accelerate
// re-execution — "flea-flicker" Multipass pipelining (Barnes et al.,
// MICRO'05).
//
// On a triggering miss the machine checkpoints the register file and
// advances past the miss in a speculative, non-committing mode: poisoned
// (miss-dependent) instructions are skipped, independent loads prefetch,
// and advance stores forward through a small runahead cache. When the
// triggering miss returns, the checkpoint is restored and ALL post-miss
// instructions re-execute — the re-processing overhead that iCFP's slice
// buffer avoids.
package runahead

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
)

// Machine is a Runahead (or, with the result buffer enabled, Multipass)
// pipeline.
//
// A Machine may be reused for any number of sequential Run calls — the
// allocation-heavy run scratch (the runahead cache and the Multipass
// result-buffer marks) is retained across calls — but it must not be
// shared between goroutines: concurrent Run calls race on that scratch.
type Machine struct {
	pipeline.Core
	cfg       pipeline.Config
	multipass bool

	// Run scratch, reused across Run calls.
	rc      *pipeline.RunaheadCache
	resMark []bool
}

// New returns a Runahead machine. Unless the caller chose otherwise, the
// paper's best Runahead configuration applies: advance under L2 misses
// only, block on data-cache misses during advance ("D$-b").
func New(cfg pipeline.Config) *Machine {
	return newMachine(cfg, false)
}

// NewMultipass returns a Multipass machine: Runahead plus a result buffer
// that saves miss-independent advance results and uses them to break
// dependences during re-execution passes. The caller picks the trigger:
// the paper's Multipass advances under L2 and primary D$ misses and
// blocks on secondary D$ misses (the spec layer's default).
func NewMultipass(cfg pipeline.Config) *Machine {
	return newMachine(cfg, true)
}

func newMachine(cfg pipeline.Config, multipass bool) *Machine {
	m := &Machine{cfg: cfg, multipass: multipass}
	m.Core = pipeline.NewCore(&m.cfg, true, m)
	return m
}

// run bundles per-window state: the in-order pipeline of normal mode
// plus the advance-mode structures.
type run struct {
	pipeline.InOrder
	mp  bool
	end int // window end (exclusive trace index); tr.Len() for full runs
	rc  *pipeline.RunaheadCache

	// Multipass result buffer: resMark[j] is set while trace index j holds
	// a result computed during an advance pass that remains valid, and
	// resLive counts set marks (bounded by cfg.ResultBufEntries). A mark
	// array replaces the obvious map: every marked index lies ahead of the
	// normal-mode cursor and is consumed exactly once when the cursor
	// passes it, so the array is self-cleaning by the end of a run and the
	// pass loop allocates nothing.
	resMark []bool
	resLive int
}

// Window is the window loop (pipeline.WindowLoop). An advance episode
// in flight at the measurement crossing is charged to the ramp (the
// snapshot happens between normal-mode steps), a boundary effect bounded
// by one episode.
func (m *Machine) Window(tr *isa.Trace, hier *mem.Hierarchy, pred *bpred.Predictor, meter *pipeline.Meter, start, meas, hi int) (int64, pipeline.Result) {
	cfg := m.cfg
	r := &run{InOrder: pipeline.NewInOrder(&cfg, tr, hier, pred), mp: m.multipass, end: hi}
	if m.rc == nil {
		m.rc = pipeline.NewRunaheadCache(cfg.RunaheadCache)
	}
	m.rc.Clear()
	m.rc.Evictions = 0
	r.rc = m.rc
	if m.multipass {
		if len(m.resMark) < tr.Len() {
			m.resMark = make([]bool, tr.Len())
		}
		r.resMark = m.resMark
	}

	for i := start; i < hi; i++ {
		if i == meas {
			meter.Cross(r.Finish, r.Res)
		}
		if acc, done, miss := r.Step(i, r.reuse(i)); miss {
			r.miss(i, acc, done)
		}
	}
	if r.mp && r.resLive != 0 {
		// The normal-mode cursor passes every marked index, so the mark
		// array is clean here; clear defensively anyway so a future logic
		// change cannot leak stale results into the next window on this
		// Machine.
		clear(r.resMark)
	}

	return r.Finish, r.Res
}

// reuse reports whether the instruction at trace index i has its result
// in the Multipass result buffer, computed during an advance pass, and
// consumes it: reusing it breaks the dependence.
func (r *run) reuse(i int) bool {
	if !r.mp || !r.resMark[i] {
		return false
	}
	r.resMark[i] = false
	r.resLive--
	return true
}

// miss handles the normal-mode load at trace index i that missed the L1
// (access acc, completing at done): a triggering miss runs the whole
// advance episode inline, and then the load retires.
func (r *run) miss(i int, acc mem.Result, done int64) {
	t := r.LastIssue
	if r.Cfg.Trigger.Fires(acc.Level, false) && acc.Done > t+int64(r.Cfg.FrontDepth) {
		r.advance(i, t+int64(r.Cfg.DCachePipe), done)
	}
	r.Retire(i, t, done)
}

// advance runs one advance episode: checkpoint at the triggering load
// (index i, miss detected at detect, data returning at ret), speculate
// past it, then restore.
func (r *run) advance(i int, detect, ret int64) {
	r.Res.Advances++
	ckpt := pipeline.TakeCheckpoint(&r.Board, i)
	if in := &r.St.In; in.HasDst() {
		r.Board.Poison[in.Dst] = 1
	}
	// The transition discards younger in-flight instructions (§5.1):
	// instruction supply restarts from the miss point.
	r.Front.Flush(detect)

	last := detect
	j := i + 1
	diverged := false
	for j < r.end && !diverged {
		var adv isa.Inst
		t, poison, predTaken, ok := r.IssueAdvance(j, &adv, last, ret)
		if !ok {
			break // the triggering miss is back; stop advancing
		}
		last = t
		r.Res.AdvanceInsts++

		done := t + 1
		switch {
		case poison != 0:
			// Miss-dependent: skipped, poison propagates.
			switch {
			case adv.Op == isa.OpStore && adv.Src1.Valid() && r.Board.Poison[adv.Src1] != 0:
				r.Res.PoisonAddrObs++ // unknown address: nothing to record
			case adv.Op == isa.OpStore:
				r.rc.Put(adv.Addr, 0, poison)
			case adv.Op.IsCtrl() && predTaken != adv.Taken:
				// A poisoned branch cannot resolve; if the prediction is
				// wrong, everything past it is wrong-path.
				diverged = true
			}
		case adv.Op == isa.OpLoad:
			done = t + int64(r.Cfg.DCachePipe)
			if _, lp, hit := r.rc.Get(adv.Addr); hit {
				poison = lp // forward from an advance store
			} else if _, ok := r.SB.Forward(t, adv.Addr); !ok {
				acc := r.Hier.Data(t, adv.Addr, false)
				switch {
				case acc.Level == mem.LevelL1:
					// hit: done already set
				case acc.Level == mem.LevelL2 && r.Cfg.BlockSecondaryD1:
					// D$-blocking: wait the secondary miss out.
					done = acc.Done + int64(r.Cfg.DCachePipe)
					last = acc.Done
				default:
					poison = 1 // D$-nb: poison the output, keep advancing
				}
			}
		case adv.Op == isa.OpStore:
			r.rc.Put(adv.Addr, adv.Val, 0)
		default:
			done = t + int64(adv.Op.ExecLatency())
		}

		if poison == 0 && adv.Op.IsCtrl() {
			r.Front.Train(&adv)
			if predTaken != adv.Taken {
				r.Front.Redirect(t + 1)
			}
		}
		r.Board.WriteDst(&adv, done, poison, uint64(j))
		if r.mp && poison == 0 && r.resLive < r.Cfg.ResultBufEntries && !r.resMark[j] {
			r.resMark[j] = true
			r.resLive++
		}
		j++
	}

	// Miss returned: restore the checkpoint and re-execute from i+1.
	ckpt.Restore(&r.Board, ret)
	r.Front.Flush(ret)
	r.rc.Clear()
	r.LastIssue = ret
	// Everything advanced past the checkpoint re-executes (Multipass
	// merely re-executes it faster via the result buffer).
	r.Res.RallyInsts += uint64(j - (i + 1))
	r.Res.RallyPasses++
}
