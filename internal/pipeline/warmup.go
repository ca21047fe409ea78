package pipeline

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
)

// WarmRange functionally replays trace indexes [lo, hi) into the caches
// and branch predictor without advancing simulated time, mirroring the
// paper's methodology ("each 1 million instruction sample is preceded by
// a 4 million instruction cache and predictor warmup period"). Cache
// insertions go through normal LRU replacement, so capacity behaviour is
// preserved; the bus, MSHRs and stream buffers are untouched. Sampled
// runs use it to extend warmed state incrementally between measurement
// windows: warming [0, a) and then [a, b) leaves state identical to
// warming [0, b) in one pass, because warming is a pure left fold over
// the trace.
func WarmRange(h *mem.Hierarchy, p *bpred.Predictor, tr *isa.Trace, lo, hi int) {
	if hi > tr.Len() {
		hi = tr.Len()
	}
	// The I-cache is looked up once per fetched line, as the frontend
	// charges it. Repeating the lookup for the line just touched changes
	// nothing but the hit count: that line is already the most recently
	// used. Seeding the previous line from instruction lo-1 keeps warming
	// [0, a) then [a, b) identical to warming [0, b) in one pass.
	line := ^uint64(0)
	if lo > 0 && lo < hi {
		line = h.ICache.LineAddr(tr.At(lo - 1).PC)
	}
	var in isa.Inst
	for i := lo; i < hi; i++ {
		tr.Decode(i, &in)
		if l := h.ICache.LineAddr(in.PC); l != line {
			line = l
			if !h.ICache.Lookup(in.PC, false) {
				h.L2.Lookup(in.PC, false)
				h.L2.Insert(in.PC, false)
				h.ICache.Insert(in.PC, false)
			}
		}
		switch in.Op {
		case isa.OpLoad, isa.OpStore:
			write := in.Op == isa.OpStore
			if !h.DCache.Lookup(in.Addr, write) {
				h.L2.Lookup(in.Addr, write)
				h.L2.Insert(in.Addr, write)
				h.DCache.Insert(in.Addr, write)
			}
		case isa.OpBranch:
			p.PredictUpdate(in.PC, in.Taken)
			if in.Taken {
				p.UpdateTarget(in.PC, in.Target)
			}
		case isa.OpJump, isa.OpCall, isa.OpRet:
			if in.Taken {
				p.UpdateTarget(in.PC, in.Target)
			}
		}
	}
}
