// Package sltp implements SLTP, the Simple Latency Tolerant Processor
// (Nekkalapu et al., ICCD'08), as characterized by the iCFP paper (§4):
// non-blocking advance under L2 misses with commit of miss-independent
// instructions, but *blocking single-pass rallies* and an SRL (store redo
// log) based data memory system.
//
// Advance stores write the SRL and, speculatively, the data cache (which
// gives free store-to-load forwarding). When the triggering miss returns,
// the speculatively written lines are flushed, and the rally re-executes
// the miss slice interleaved in program order with draining the SRL to
// the cache — stalling on any miss it encounters and keeping the tail
// stalled until both finish. Store-to-load poison propagation is
// idealized (Table 1: "idealized memory dependence prediction and load
// queue").
package sltp

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
)

// Machine is an SLTP pipeline.
//
// A Machine may be reused for sequential Run calls — episode scratch (the
// slice, SRL, and advance-store forwarding table) is retained across
// calls — but concurrent Run calls on one Machine race on that scratch.
type Machine struct {
	pipeline.Core
	cfg pipeline.Config

	// Run scratch, reused across Run calls.
	slice []sliceEntry
	srl   []srlEntry
	spec  map[uint64]specVal
}

// New returns an SLTP machine. Its paper configuration advances under L2
// misses only and blocks on data-cache misses during advance.
func New(cfg pipeline.Config) *Machine {
	cfg.Trigger = pipeline.TriggerL2Only
	m := &Machine{cfg: cfg}
	m.Core = pipeline.NewCore(&m.cfg, true, m)
	return m
}

type srcKind uint8

const (
	srcNone srcKind = iota
	srcCaptured
	srcSlice
)

type sliceSrc struct {
	kind srcKind
	prod int // index into the slice
}

type sliceEntry struct {
	idx    int
	seq    uint64
	srcs   [2]sliceSrc
	isCtrl bool
	predOK bool
	done   int64
	ran    bool
}

type srlEntry struct {
	addr    uint64
	val     uint64
	poison  bool
	seq     uint64
	prodIdx int // slice index of the producing (data) instruction, -1 if clean
}

type specVal struct {
	val    uint64
	poison bool
	prod   int
}

// run bundles per-window state: the in-order pipeline of normal mode
// plus the advance and rally structures.
type run struct {
	pipeline.InOrder
	end int // window end (exclusive trace index); tr.Len() for full runs

	slice      []sliceEntry
	srl        []srlEntry
	spec       map[uint64]specVal // advance-store forwarding (idealized)
	lastWriter [isa.NumRegs]int

	ckpt    pipeline.Checkpoint
	seqCtr  uint64
	primRet int64
}

// Window is the window loop (pipeline.WindowLoop). An advance episode
// can both jump forward and rewind on a squash, so the measurement
// crossing is latched the first time the loop reaches meas.
func (m *Machine) Window(tr *isa.Trace, hier *mem.Hierarchy, pred *bpred.Predictor, meter *pipeline.Meter, start, meas, hi int) (int64, pipeline.Result) {
	cfg := m.cfg
	if m.slice == nil {
		m.slice = make([]sliceEntry, 0, cfg.SliceEntries)
		m.srl = make([]srlEntry, 0, cfg.SRLEntries)
		m.spec = make(map[uint64]specVal, cfg.SRLEntries)
	}
	r := &run{InOrder: pipeline.NewInOrder(&cfg, tr, hier, pred), end: hi, slice: m.slice[:0], srl: m.srl[:0], spec: m.spec}
	clear(r.spec)
	defer func() {
		// Episode scratch may have grown (the SRL is unbounded by design);
		// hand the larger backing back to the Machine for the next window.
		m.slice, m.srl = r.slice[:0], r.srl[:0]
	}()

	crossed := false
	for i := start; i < hi; {
		if !crossed && i >= meas {
			crossed = true
			meter.Cross(r.Finish, r.Res)
		}
		if acc, done, miss := r.Step(i, false); miss {
			i = r.miss(i, acc, done)
		} else {
			i++
		}
	}
	return r.Finish, r.Res
}

// miss handles the normal-mode load at trace index i that missed the L1
// (access acc, completing at done) and returns the next index. A
// triggering miss is not retired: the load enters the slice, and the
// advance episode and its rally run inline; the next index is where the
// rally resumes, which rewinds on a squash.
func (r *run) miss(i int, acc mem.Result, done int64) int {
	t := r.LastIssue
	if r.triggers(acc) {
		return r.advance(i, t, acc.Done)
	}
	r.Retire(i, t, done)
	return i + 1
}

// triggers reports whether a normal-mode load access starts an advance
// episode: it must miss the L2 and take longer to return, counted from
// the load's issue, than a configured L2 hit would.
func (r *run) triggers(acc mem.Result) bool {
	return r.Cfg.Trigger.Fires(acc.Level, false) && acc.Done > r.LastIssue+int64(r.Cfg.Hier.L2HitLat)
}

func (r *run) nextSeq() uint64 {
	r.seqCtr++
	return r.seqCtr
}

// captureSrcs records each input as a captured side value or a slice-
// internal dependence.
func (r *run) captureSrcs(e *sliceEntry, in *isa.Inst) {
	srcs := [2]isa.Reg{in.Src1, in.Src2}
	for k, s := range srcs {
		switch {
		case !s.Valid():
			e.srcs[k] = sliceSrc{kind: srcNone}
		case r.Board.Poison[s] != 0:
			e.srcs[k] = sliceSrc{kind: srcSlice, prod: r.lastWriter[s]}
		default:
			e.srcs[k] = sliceSrc{kind: srcCaptured}
		}
	}
}

// appendSlice diverts a miss-dependent instruction into the slice buffer,
// poisoning its destination. It reports false when the buffer is full.
func (r *run) appendSlice(in *isa.Inst, idx int, predOK bool) bool {
	if len(r.slice) >= r.Cfg.SliceEntries {
		r.Res.SliceOverflows++
		return false
	}
	e := sliceEntry{idx: idx, seq: r.nextSeq(), isCtrl: in.Op.IsCtrl(), predOK: predOK}
	r.captureSrcs(&e, in)
	r.slice = append(r.slice, e)
	r.Board.WriteDst(in, 0, 1, e.seq)
	if in.HasDst() {
		r.lastWriter[in.Dst] = len(r.slice) - 1
	}
	r.Res.AdvanceInsts++
	return true
}

// advance runs an SLTP advance episode starting at the triggering load
// (index i, issued at t, miss returning at ret), followed by the blocking
// rally. It returns the index at which normal execution resumes.
func (r *run) advance(i int, t, ret int64) int {
	r.Res.Advances++
	r.ckpt = pipeline.TakeCheckpoint(&r.Board, i)
	for k := range r.Board.Seq {
		r.Board.Seq[k] = 0
	}
	r.seqCtr = 0
	r.slice = r.slice[:0]
	r.srl = r.srl[:0]
	clear(r.spec)
	for k := range r.lastWriter {
		r.lastWriter[k] = -1
	}
	r.primRet = ret

	pipe := int64(r.Cfg.DCachePipe)
	r.appendSlice(&r.St.In, i, true) // the triggering load

	last := t + pipe
	j := i + 1
	halted := false
	for j < r.end && !halted {
		var adv isa.Inst
		tt, poison, predTaken, ok := r.IssueAdvance(j, &adv, last, ret)
		if !ok {
			break // the triggering miss is back: rally
		}
		last = tt

		if poison != 0 {
			switch {
			case adv.Op == isa.OpStore && adv.Src1.Valid() && r.Board.Poison[adv.Src1] != 0:
				// Poisoned store address: the SRL cannot hold it usefully;
				// advance halts until the rally (the store retries after).
				r.Res.PoisonAddrObs++
				halted = true
			case adv.Op == isa.OpStore:
				r.srl = append(r.srl, srlEntry{
					addr: adv.Addr, poison: true,
					seq: r.nextSeq(), prodIdx: r.lastWriter[adv.Src2],
				})
				r.spec[adv.Addr] = specVal{poison: true, prod: r.lastWriter[adv.Src2]}
				r.Res.AdvanceInsts++
				j++
			default:
				if r.appendSlice(&adv, j, !adv.Op.IsCtrl() || predTaken == adv.Taken) {
					j++
					if adv.Op.IsCtrl() && predTaken != adv.Taken {
						halted = true // diverged; the rally will squash here
					}
				} else {
					halted = true
				}
			}
			continue
		}

		// Miss-independent: execute and commit.
		done := tt + 1
		switch adv.Op {
		case isa.OpLoad:
			if sv, ok := r.spec[adv.Addr]; ok {
				if sv.poison {
					// Idealized memory dependence prediction: the load is
					// recognized as miss-dependent via the poisoned store.
					if len(r.slice) >= r.Cfg.SliceEntries {
						r.Res.SliceOverflows++
						halted = true
						continue
					}
					e := sliceEntry{idx: j, seq: r.nextSeq()}
					e.srcs[0] = sliceSrc{kind: srcSlice, prod: sv.prod}
					r.slice = append(r.slice, e)
					r.Board.WriteDst(&adv, 0, 1, e.seq)
					if adv.HasDst() {
						r.lastWriter[adv.Dst] = len(r.slice) - 1
					}
					r.Res.AdvanceInsts++
					j++
					continue
				}
				done = tt + pipe
			} else if _, ok := r.SB.Forward(tt, adv.Addr); ok {
				done = tt + pipe
			} else {
				acc := r.Hier.Data(tt, adv.Addr, false)
				switch {
				case acc.Done <= tt+pipe:
					done = tt + pipe
				case acc.Level == mem.LevelMem:
					// Secondary L2 miss: poison and keep advancing.
					if r.appendSlice(&adv, j, true) {
						j++
					} else {
						halted = true
					}
					continue
				default:
					// Data-cache miss: SLTP blocks advance on these.
					done = acc.Done + pipe
					last = acc.Done
				}
			}
		case isa.OpStore:
			r.srl = append(r.srl, srlEntry{addr: adv.Addr, val: adv.Val, seq: r.nextSeq(), prodIdx: -1})
			r.spec[adv.Addr] = specVal{val: adv.Val, prod: -1}
			r.Hier.DCache.InsertSpeculative(adv.Addr)
		default:
			done = tt + int64(adv.Op.ExecLatency())
		}
		r.Board.WriteDst(&adv, done, 0, r.nextSeq())
		if adv.Op.IsCtrl() {
			r.Front.Train(&adv)
			if predTaken != adv.Taken {
				r.Res.BranchMispredicts++
				r.Front.Redirect(tt + 1)
			}
		}
		if done > r.Finish {
			r.Finish = done
		}
		r.Res.AdvanceInsts++
		j++
	}

	return r.rally(j, ret)
}

// rally performs the single blocking rally pass: flush speculative cache
// lines, then re-execute the slice interleaved with draining the SRL in
// program order, stalling on every miss. The tail stays stalled
// throughout. It returns the resume index (the checkpoint on a squash).
func (r *run) rally(resume int, ret int64) int {
	r.Res.RallyPasses++
	r.Hier.DCache.FlushSpeculative()

	clock := ret
	pipe := int64(r.Cfg.DCachePipe)
	si, gi := 0, 0
	for si < len(r.slice) || gi < len(r.srl) {
		// Program-order merge of slice re-execution and SRL drain.
		doSlice := si < len(r.slice) &&
			(gi >= len(r.srl) || r.slice[si].seq < r.srl[gi].seq)
		clock++
		if !doSlice {
			s := &r.srl[gi]
			r.Hier.Data(clock, s.addr, true)
			gi++
			continue
		}
		e := &r.slice[si]
		r.Res.RallyInsts++
		var in isa.Inst
		r.Tr.Decode(e.idx, &in)
		for _, src := range e.srcs {
			if src.kind == srcSlice && src.prod >= 0 {
				if d := r.slice[src.prod].done; d > clock {
					clock = d // wait for the producer (blocking rally)
				}
			}
		}
		done := clock + 1
		switch {
		case in.Op == isa.OpLoad:
			if sv, ok := r.spec[in.Addr]; ok && sv.prod >= 0 {
				done = clock + pipe // forwarded from a rallied store
			} else {
				acc := r.Hier.Data(clock, in.Addr, false)
				done = acc.Done + pipe
				if h := clock + pipe; done < h {
					done = h
				}
				if acc.Done > clock {
					clock = acc.Done // blocking: wait the miss out
				}
			}
		case e.isCtrl:
			r.Front.Train(&in)
			if !e.predOK {
				return r.squash(clock)
			}
		case in.Op == isa.OpStore:
			// Poisoned-data store from the slice: written via its SRL slot.
		default:
			done = clock + int64(in.Op.ExecLatency())
		}
		e.done = done
		e.ran = true
		if in.HasDst() && r.Board.Seq[in.Dst] == e.seq {
			r.Board.Ready[in.Dst] = done
			r.Board.Poison[in.Dst] = 0
		}
		if done > r.Finish {
			r.Finish = done
		}
		si++
	}

	// Rally complete: reconcile and resume the tail.
	r.Board.ClearPoison()
	r.Front.Stall(clock)
	r.LastIssue = clock
	if clock > r.Finish {
		r.Finish = clock
	}
	return resume
}

// squash recovers from a mispredicted poisoned branch found during the
// rally: restore the checkpoint and re-execute from there.
func (r *run) squash(clock int64) int {
	r.Res.Squashes++
	r.Res.BranchMispredicts++
	r.ckpt.Restore(&r.Board, clock+int64(r.Cfg.FrontDepth))
	r.Hier.DCache.FlushSpeculative()
	r.Front.Flush(clock)
	r.LastIssue = clock
	return r.ckpt.Index
}
