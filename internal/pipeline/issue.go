package pipeline

import "icfp/internal/isa"

// Staged is one instruction of a normal-mode issue step, the step the
// in-order-based cores share: the in-order baseline for every
// instruction, iCFP outside advance and rally. An instruction is staged
// (decoded, its front-end state resolved), gated to its Earliest issue
// cycle, given the first free slot from there by SlotAlloc.Take,
// executed, its result written back (Scoreboard.WriteDst), and its
// branch resolved. Execution stays with each core: the in-order
// StoreBuffer and iCFP's chained store buffer time loads and stores
// differently, and a core charges its own store-buffer stall between
// Earliest and Take.
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
