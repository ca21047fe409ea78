// Package ooo implements the two comparison points the paper cites in
// §5.3: a 2-way out-of-order processor ("a 68% performance advantage over
// our 2-way in-order pipeline") and a 2-way out-of-order Continual Flow
// Pipeline ("an 83% advantage").
//
// The model is a resource-constrained dataflow scheduler rather than a
// full rename/issue-queue simulation: instructions dispatch in order into
// a reorder buffer at the front-end rate, execute when their operands and
// a function-unit port are available, and commit in order. The CFP
// variant releases reorder-buffer entries held by L2-miss forward slices
// (the CPR/CFP effect: the window scales virtually past misses); slice
// re-execution is assumed to overlap with the non-blocking back end, so
// it approximates an upper bound consistent with the paper's one-line
// characterization.
package ooo

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
)

// Config extends the pipeline configuration with window sizes.
type Config struct {
	pipeline.Config
	ROBEntries int  // reorder buffer capacity
	CFP        bool // continual-flow: L2-miss slices release their entries
}

// DefaultConfig returns a 2-way out-of-order machine on the Table 1
// memory system with a 128-entry reorder buffer.
func DefaultConfig() Config {
	return Config{Config: pipeline.DefaultConfig(), ROBEntries: 128}
}

// Machine is an out-of-order (optionally continual-flow) pipeline.
type Machine struct {
	pipeline.Core
	cfg Config
}

// New builds the machine. Its results leave the D$ and L2 MLP fields
// zero.
func New(cfg Config) *Machine {
	m := &Machine{cfg: cfg}
	m.Core = pipeline.NewCore(&m.cfg.Config, false, m)
	return m
}

// ports schedules a small set of identical, fully pipelined function
// units: at most `count` operations may START in any one cycle. Unlike a
// scalar busy-until clock, it backfills idle gaps — essential for
// out-of-order scheduling, where a long-latency consumer reserving a
// future slot must not block younger operations from using earlier idle
// cycles.
// The backing store is a fixed ring of per-cycle start counts covering
// the window [low, low+portsWindow): far wider than any distance the
// ROB can reach back (its window is bounded by ROBEntries times the
// longest miss latency in cycles of slack, in practice a few hundred),
// yet allocation-free no matter how many cycles a run spans. The
// previous map-backed version grew one bucket per distinct cycle — ~43
// bytes per simulated instruction on long traces.
type ports struct {
	count int
	used  []uint8
	low   int64 // cycles below this are forgotten (and unschedulable)
}

// portsWindow is the ring span in cycles; a power of two so the slot
// computation is a mask.
const portsWindow = 8192

func newPorts(count int) *ports {
	return &ports{count: count, used: make([]uint8, portsWindow)}
}

// take returns the earliest cycle >= cycle with a free issue slot and
// occupies it.
func (p *ports) take(cycle int64) int64 {
	if cycle < p.low {
		cycle = p.low
	}
	p.slide(cycle)
	c := cycle
	for p.used[c&(portsWindow-1)] >= uint8(p.count) {
		c++
		p.slide(c)
	}
	p.used[c&(portsWindow-1)]++
	return c
}

// slide advances the window so cycle c's slot is valid, zeroing slots
// whose cycles fall off the back.
func (p *ports) slide(c int64) {
	if c < p.low+portsWindow {
		return
	}
	newLow := c - portsWindow + 1
	if newLow-p.low >= portsWindow {
		clear(p.used) // jumped a whole window: nothing survives
	} else {
		for k := p.low; k < newLow; k++ {
			p.used[k&(portsWindow-1)] = 0
		}
	}
	p.low = newLow
}

// Window is the window loop (pipeline.WindowLoop).
func (m *Machine) Window(tr *isa.Trace, hier *mem.Hierarchy, pred *bpred.Predictor, meter *pipeline.Meter, start, meas, hi int) (int64, pipeline.Result) {
	cfg := m.cfg
	front := pipeline.NewFrontend(&cfg.Config, hier, pred)
	sb := pipeline.NewStoreBuffer(cfg.StoreBufEntries, hier)

	intPorts := newPorts(cfg.IntPorts)
	memPorts := newPorts(cfg.MemFPBrPorts)

	var ready [isa.NumRegs]int64
	// commitAt[k] is the commit cycle of the k'th most recent
	// instruction, a ring of ROB size for the dispatch stall.
	commitAt := make([]int64, cfg.ROBEntries)
	var lastCommit int64
	commitSlot := 0 // instructions committed in the current commit cycle

	var finish int64
	var mispredicts uint64
	pipe := int64(cfg.DCachePipe)
	var in isa.Inst
	for i := start; i < hi; i++ {
		if i == meas {
			meter.Cross(finish, pipeline.Result{BranchMispredicts: mispredicts})
		}
		tr.Decode(i, &in)
		k := (i - start) % cfg.ROBEntries

		// Dispatch: in order, limited by the front end and a free ROB
		// entry (the instruction ROBEntries older must have committed).
		dispatch := front.Avail(&in)
		if prev := commitAt[k]; prev > dispatch {
			dispatch = prev
		}
		predTaken := front.Predict(&in)

		// Execute: when operands are ready and a port frees.
		opsReady := dispatch
		if in.Src1.Valid() && ready[in.Src1] > opsReady {
			opsReady = ready[in.Src1]
		}
		if in.Src2.Valid() && ready[in.Src2] > opsReady {
			opsReady = ready[in.Src2]
		}
		var start, done int64
		sliced := false
		switch {
		case in.Op == isa.OpLoad:
			start = memPorts.take(opsReady)
			if _, ok := sb.Forward(start, in.Addr); ok {
				done = start + pipe
			} else {
				acc := hier.Data(start, in.Addr, false)
				done = acc.Done + pipe
				if h := start + pipe; done < h {
					done = h
				}
				if cfg.CFP && acc.Level == mem.LevelMem {
					sliced = true // the slice buffer absorbs this load
				}
			}
		case in.Op == isa.OpStore:
			start = memPorts.take(opsReady)
			sb.Insert(start, in.Addr, in.Val)
			done = start + 1
		case pipeline.IsMemFPBr(in.Op):
			start = memPorts.take(opsReady)
			done = start + int64(in.Op.ExecLatency())
		default:
			start = intPorts.take(opsReady)
			done = start + int64(in.Op.ExecLatency())
		}
		if in.HasDst() {
			ready[in.Dst] = done
		}

		if in.Op.IsCtrl() {
			front.Train(&in)
			if predTaken != in.Taken {
				mispredicts++
				front.Redirect(done)
			}
		}

		// Commit: in order, Width per cycle. A CFP slice releases its
		// entry at dispatch+drain rather than holding the ROB for the
		// whole miss (its dependents re-acquire entries later; their
		// timing is already carried through the ready[] dataflow).
		commitReady := done
		if sliced {
			commitReady = start + pipe
		}
		c := commitReady
		if c < lastCommit {
			c = lastCommit
		}
		if c == lastCommit && commitSlot >= cfg.Width {
			c++
		}
		if c > lastCommit {
			commitSlot = 0
		}
		lastCommit = c
		commitSlot++
		commitAt[k] = c
		if done > finish {
			finish = done
		}
		if c > finish {
			finish = c
		}
	}

	return finish, pipeline.Result{BranchMispredicts: mispredicts}
}
