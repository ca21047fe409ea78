package pipeline

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
)

// Staged is one instruction of a normal-mode issue step, the step the
// in-order-based cores share: the in-order baseline for every
// instruction, iCFP outside advance and rally. An instruction is staged
// (decoded, its front-end state resolved), gated to its Earliest issue
// cycle, given the first free slot from there by SlotAlloc.Take,
// executed, its result written back (Scoreboard.WriteDst), and its
// branch resolved. InOrder executes it on the in-order StoreBuffer;
// iCFP executes it on its chained store buffer, which times loads and
// stores differently.
type Staged struct {
	In        isa.Inst
	Avail     int64 // the cycle the front end supplies In
	PredTaken bool  // In's predicted direction (control instructions)
}

// Stage decodes trace index i into s and resolves its front-end state:
// once per instruction, in program order, since both front-end calls
// advance fetch state. Only control instructions are predicted
// (Frontend.Predict leaves any other alone).
func (s *Staged) Stage(f *Frontend, tr *isa.Trace, i int) {
	tr.Decode(i, &s.In)
	s.Avail = f.Avail(&s.In)
	s.PredTaken = s.In.Op.IsCtrl() && f.Predict(&s.In)
}

// Earliest returns the first cycle s may issue: once the front end
// supplies it, once its sources are ready, and not before the previous
// instruction's issue cycle lastIssue.
func (s *Staged) Earliest(b *Scoreboard, lastIssue int64) int64 {
	return max(s.Avail, b.SrcReady(&s.In), lastIssue)
}

// Resolve resolves a control instruction issued at t: it trains the
// predictor and, on a misprediction, redirects the front end and reports
// true. Any other instruction is left alone. Only the test inlines into
// a core's loop; the work stays out of line.
func (s *Staged) Resolve(f *Frontend, t int64) (mispredicted bool) {
	return s.In.Op.IsCtrl() && s.resolve(f, t)
}

func (s *Staged) resolve(f *Frontend, t int64) bool {
	f.Train(&s.In)
	if s.PredTaken == s.In.Taken {
		return false
	}
	f.Redirect(t + 1)
	return true
}

// InOrder is Table 1's stall-on-use in-order pipeline over one window:
// its front end, issue slots, store buffer and scoreboard, the issue
// cycle of the last instruction, the latest completion cycle, and the
// window's counters. The in-order baseline is a loop over Step.
// Runahead, Multipass and SLTP embed it: outside advance mode each of
// them is this pipeline, checking its advance trigger on the misses
// Step hands back, and its advance walks issue through IssueAdvance.
type InOrder struct {
	Cfg   *Config
	Tr    *isa.Trace
	Hier  *mem.Hierarchy
	Front Frontend
	Slots SlotAlloc
	SB    StoreBuffer
	Board Scoreboard
	St    Staged // the normal-mode instruction being issued

	LastIssue int64 // issue cycle of the last instruction
	Finish    int64 // latest completion cycle so far
	Res       Result
}

// NewInOrder builds the pipeline for a window of tr on cfg, over a
// warmed hierarchy and predictor.
func NewInOrder(cfg *Config, tr *isa.Trace, hier *mem.Hierarchy, pred *bpred.Predictor) InOrder {
	return InOrder{
		Cfg: cfg, Tr: tr, Hier: hier,
		Front: *NewFrontend(cfg, hier, pred),
		Slots: *NewSlotAlloc(cfg),
		SB:    *NewStoreBuffer(cfg.StoreBufEntries, hier),
	}
}

// Step runs the normal-mode instruction at trace index i: it stages it
// into St, gates it to its earliest cycle, charges a store a full store
// buffer, takes its issue slot (LastIssue), executes it, and retires it
// (Retire). A load forwards from the store buffer, else accesses the
// hierarchy; a store enters the store buffer. reuse marks a result
// computed ahead (a Multipass result-buffer hit): the instruction then
// completes a cycle after issue, though a store still enters the store
// buffer.
//
// A load whose access misses the L1 is handed back unretired instead,
// with its access and completion cycle (its issue cycle is LastIssue):
// every AdvanceTrigger fires only past the L1, so this is where a core
// checks its trigger and starts an advance episode. The core then
// retires the load, or not.
func (p *InOrder) Step(i int, reuse bool) (acc mem.Result, done int64, miss bool) {
	p.St.Stage(&p.Front, p.Tr, i)
	in := &p.St.In
	earliest := p.St.Earliest(&p.Board, p.LastIssue)
	if in.Op == isa.OpStore {
		earliest = p.SB.FullUntil(earliest)
	}
	t := p.Slots.Take(earliest, in.Op)
	p.LastIssue = t

	pipe := int64(p.Cfg.DCachePipe)
	switch {
	case in.Op == isa.OpStore:
		p.SB.Insert(t, in.Addr, in.Val)
		done = t + 1
	case reuse:
		done = t + 1
	case in.Op == isa.OpLoad:
		if _, ok := p.SB.Forward(t, in.Addr); ok {
			done = t + pipe
			break
		}
		acc = p.Hier.Data(t, in.Addr, false)
		done = max(acc.Done+pipe, t+pipe)
		if acc.Level != mem.LevelL1 {
			return acc, done, true
		}
	default:
		done = t + int64(in.Op.ExecLatency())
	}
	p.Retire(i, t, done)
	return acc, done, false
}

// Retire writes St, the instruction at trace index i issued at t, back
// at done, resolves its branch, and extends Finish.
func (p *InOrder) Retire(i int, t, done int64) {
	p.Board.WriteDst(&p.St.In, done, 0, uint64(i))
	if p.St.Resolve(&p.Front, t) {
		p.Res.BranchMispredicts++
	}
	p.Finish = max(p.Finish, done)
}

// IssueAdvance is the issue step of an advance walk (Runahead's and
// SLTP's): it decodes trace index j into in and gates it on the front
// end, on last (the walk's previous issue cycle, or a blocking miss)
// and, unless a source is poisoned, on source readiness. If its slot
// would come at or after ret, the triggering miss is back: it reports
// ok false with nothing taken. Otherwise it takes the slot and predicts
// a control instruction. poison is the union of the sources' poison.
func (p *InOrder) IssueAdvance(j int, in *isa.Inst, last, ret int64) (t int64, poison uint8, predTaken, ok bool) {
	p.Tr.Decode(j, in)
	earliest := max(p.Front.Avail(in), last)
	poison = p.Board.SrcPoison(in)
	if poison == 0 {
		earliest = max(earliest, p.Board.SrcReady(in))
	}
	if p.Slots.Peek(earliest, in.Op) >= ret {
		return 0, poison, false, false
	}
	t = p.Slots.Take(earliest, in.Op)
	return t, poison, in.Op.IsCtrl() && p.Front.Predict(in), true
}
