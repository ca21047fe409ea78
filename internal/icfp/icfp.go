// The iCFP machine: a 2-way in-order pipeline that, on a cache miss at
// any level, checkpoints the register file and continues in "advance"
// mode — committing miss-independent instructions and diverting
// miss-dependent ones (with their side inputs) into the slice buffer.
// Each miss return triggers a "rally" pass that re-executes only the
// slice, merging results into primary register state gated by last-writer
// sequence numbers. Rallies are non-blocking (a slice load that misses
// again is re-poisoned in place for a later pass) and can be
// multithreaded with continued advance at the program tail.
package icfp

import (
	"fmt"

	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
)

// Machine is an iCFP pipeline.
type Machine struct {
	pipeline.Core
	cfg    pipeline.Config
	sbMode SBMode

	// ExternalStores optionally injects coherence probes from another
	// processor (§3.3): at each event's cycle, the address probes the
	// load signature and forces a squash to the checkpoint on a hit.
	ExternalStores []ExternalStoreEvent
}

// ExternalStoreEvent is one remote store visible to this core.
type ExternalStoreEvent struct {
	Cycle int64
	Addr  uint64
}

// New returns a full iCFP machine: advance under all misses, chained
// store buffer, non-blocking multithreaded rallies, poison vectors as
// configured.
func New(cfg pipeline.Config) *Machine {
	return NewWithOptions(cfg, pipeline.TriggerAll, SBChained)
}

// NewWithOptions returns an iCFP machine with an explicit advance trigger
// (Figure 6's iCFP-L2 vs iCFP-all) and store-buffer design (Figure 8).
func NewWithOptions(cfg pipeline.Config, trig pipeline.AdvanceTrigger, sb SBMode) *Machine {
	cfg.Trigger = trig
	m := &Machine{cfg: cfg, sbMode: sb}
	m.Core = pipeline.NewCore(&m.cfg, true, m)
	return m
}

// watchdogCycles bounds any single simulation; exceeding it indicates a
// scheduling deadlock rather than a slow workload.
const watchdogCycles = int64(1) << 36

type mode int

const (
	modeNormal mode = iota
	modeAdvance
)

type pendingMiss struct {
	cycle int64
	bit   uint8
}

// staged is the next tail instruction, decoded and with its front-end
// state resolved exactly once.
type staged struct {
	pipeline.Staged
	idx   int
	valid bool
}

type run struct {
	cfg    *pipeline.Config
	sbMode SBMode
	ext    []ExternalStoreEvent
	tr     *isa.Trace
	end    int // window end (exclusive trace index); tr.Len() for full runs
	meas   int // measurement start (trace index); == window start for full runs
	hier   *mem.Hierarchy
	front  *pipeline.Frontend
	slots  *pipeline.SlotAlloc
	board  pipeline.Scoreboard // RF0: main register file state
	csb    *ChainedStoreBuffer
	slice  *sliceBuffer
	sig    *Signature

	mode    mode
	ckpt    pipeline.Checkpoint
	ckptSSN uint64
	seqCtr  uint64

	// Poison-bit pool. busyBits has bit b set while bitPending[b] > 0.
	nBits      int
	bitNext    int
	bitPending [8]int
	busyBits   uint8
	pending    []pendingMiss
	// pendingMin is the earliest return cycle in pending (meaningful only
	// while pending is non-empty). It lets fireReturns and nextEvent skip
	// the pending walk on the vast majority of cycles, where no return is
	// due.
	pendingMin int64
	// recheckPass is set by every event that could newly satisfy the
	// "some active slice entry waits on a returned bit" pass-start
	// condition (a miss return, a slice append or re-poison, a pass end).
	// fireReturns only re-evaluates waitingFreeBits while it is set, so
	// the check is O(changed) instead of per-cycle.
	recheckPass bool

	// Last poisoned writer of each register (slice entry id), valid while
	// board.Poison[reg] != 0.
	lastWriter [isa.NumRegs]uint64

	// pendingBranches counts unresolved poisoned branches in the slice
	// buffer. Tail advance pauses once it exceeds a small bound: work past
	// many unresolved low-confidence branches is likely to be squashed,
	// so a real front end gates fetch instead (confidence throttling).
	pendingBranches int

	// Rally pass state.
	passActive   bool
	passBits     uint8
	cursor       uint64
	retsDuring   bool
	rallyReadyAt int64

	// Tail state.
	i         int
	st        staged
	lastIssue int64
	stallSSN  uint64 // SBLimited: waiting for this store to drain
	// stEarliest caches tailEarliest() for the staged instruction; valid
	// while stEarliestOK. Every write that can move the staged
	// instruction's issue cycle (scoreboard writebacks, mode transitions,
	// checkpoint restores) invalidates it via dirtyTail.
	stEarliest   int64
	stEarliestOK bool

	cycle    int64
	finish   int64
	sraUntil int64 // simple-runahead episode active until this cycle

	res pipeline.Result

	// The window's meter, crossed once when the tail cursor first
	// reaches meas.
	meter   *pipeline.Meter
	crossed bool
}

// Window is the window loop (pipeline.WindowLoop): the cycle loop
// crosses the meter when the tail cursor first reaches meas (slice/rally
// work in flight at the crossing is charged to the ramp). External store
// events are replayed from the start of every window (their cycles are
// window-relative).
func (m *Machine) Window(tr *isa.Trace, hier *mem.Hierarchy, pred *bpred.Predictor, meter *pipeline.Meter, start, meas, hi int) (int64, pipeline.Result) {
	cfg := m.cfg
	r := &run{cfg: &cfg, sbMode: m.sbMode, tr: tr, end: hi, meas: meas, ext: m.ExternalStores, meter: meter}
	r.hier = hier
	r.front = pipeline.NewFrontend(&cfg, r.hier, pred)
	r.slots = pipeline.NewSlotAlloc(&cfg)
	r.csb = NewChainedStoreBuffer(cfg.ChainedSBEntries, cfg.ChainTableEntries, m.sbMode)
	r.slice = newSliceBuffer(cfg.SliceEntries)
	r.sig = NewSignature(1024)
	// Pending-miss scratch: sized so steady state never grows it (bounded
	// in practice by outstanding MSHRs).
	r.pending = make([]pendingMiss, 0, cfg.Hier.NumMSHRs+8)
	r.nBits = cfg.PoisonBits
	if r.nBits < 1 {
		r.nBits = 1
	}
	if r.nBits > 8 {
		r.nBits = 8
	}

	r.i = start

	r.loop()
	return r.finish, r.counters()
}

// counters returns the run's event counters with the chained store
// buffer's folded in: its forward count, which the meter subtracts at
// the crossing like any counter, and its hop shapes, which are
// distribution summaries over the whole detailed range, ramp included.
func (r *run) counters() pipeline.Result {
	res := r.res
	res.SBForwards = r.csb.Forwards
	res.SBExtraHops = r.csb.MeanExtraHops()
	res.SBHopsAtLeast = r.csb.HopHistogram().FractionAtLeast(5)
	return res
}

// loop is the cycle-driven core: each iteration is one cycle (with
// skip-ahead when nothing can possibly happen). Each subsystem call is
// guarded by the cheapest possible "could it do anything this cycle?"
// check inline: the loop body runs a couple hundred thousand times per
// simulated workload, so even a no-op function call per subsystem per
// cycle is measurable against the in-order baseline. While only the
// tail can act, the loop hands the cycle to normal, which issues
// instruction by instruction instead; the test-only pipeline.Strict
// keeps normal mode in the loop and steps it one cycle at a time.
func (r *run) loop() {
	n := r.end
	// Staging moves r.i past an instruction before it issues, so a staged
	// instruction keeps the loop running as much as an unstaged one.
	for r.i < n || r.st.valid || !r.slice.Empty() || len(r.pending) > 0 {
		if r.mode == modeNormal && len(r.pending) == 0 && !r.passActive && r.stallSSN == 0 &&
			r.slice.Empty() && !pipeline.Strict {
			r.normal()
			continue
		}
		if r.cycle > watchdogCycles {
			panic("icfp: simulation exceeded the watchdog cycle bound (deadlock?)")
		}
		if (len(r.pending) > 0 && r.pendingMin <= r.cycle) || r.recheckPass {
			r.fireReturns()
		}
		for len(r.ext) > 0 && r.ext[0].Cycle <= r.cycle {
			r.externalStore(r.ext[0].Addr)
			r.ext = r.ext[1:]
		}
		prog := false
		if r.csb.ssnComplete < r.csb.ssnTail && r.drainStores() {
			prog = true
		}
		if r.passActive && r.rallyStep() {
			prog = true
		}
		if r.tailStep() {
			prog = true
		}
		if r.mode == modeAdvance {
			r.maybeExitAdvance()
		}
		if prog {
			r.cycle++
			continue
		}
		r.cycle = r.nextEvent()
	}
	if r.cycle > r.finish {
		r.finish = r.cycle
	}
}

// normal runs normal mode the way the in-order baseline does: each
// instruction is gated by the shared normal-mode step, jumped to its
// issue cycle with SlotAlloc.Take, and executed by issueTail. It starts
// at the top of the cycle loop's iteration for r.cycle, with nothing
// but the tail able to act: normal mode, no slice entry, no pending
// miss, no rally pass and no SBLimited stall. It leaves r.cycle at the
// top of the next iteration the loop runs.
//
// Of the loop's other work, only two things happen in normal mode, and
// normal catches both up to each instruction's issue cycle t before the
// instruction acts: the chained store buffer drains one store per cycle
// (always drainable: drainLimit is the tail), and external-store events
// are popped (a probe outside advance mode cannot squash, but
// len(r.ext) gates sigInsert).
func (r *run) normal() {
	drainAt := r.cycle // the first cycle whose drain has not run
	for {
		if !r.st.valid {
			if r.i >= r.end {
				r.cycle++ // the loop's last iteration issued at r.cycle
				return
			}
			r.stage()
		}
		t := r.slots.Take(max(r.cachedTailEarliest(), r.cycle), r.st.In.Op)
		for len(r.ext) > 0 && r.ext[0].Cycle <= t {
			r.ext = r.ext[1:]
		}
		for ; drainAt <= t && r.csb.ssnComplete < r.csb.ssnTail; drainAt++ {
			addr, ok := r.csb.DrainNext(r.csb.Tail())
			if !ok {
				break
			}
			r.hier.Data(drainAt, addr, true)
		}
		drainAt = t + 1
		r.cycle = t
		if !r.issueTail() {
			r.cycle++ // a structural stall: the loop retries next cycle
			return
		}
		if r.mode == modeAdvance {
			// A load missed and entered advance mode: the rest of this
			// cycle's tail issue is the loop's, as is what follows.
			r.tailStep()
			r.maybeExitAdvance()
			r.cycle++
			return
		}
	}
}

// nextEvent finds the earliest cycle at which anything can change, per
// the pipeline.Horizon contract: every subsystem that can make progress
// contributes its next known event cycle.
func (r *run) nextEvent() int64 {
	if pipeline.Strict {
		return r.cycle + 1
	}
	var h pipeline.Horizon
	h.Reset(r.cycle)
	if len(r.pending) > 0 {
		h.Observe(r.pendingMin)
	}
	if r.recheckPass && !r.passActive && !r.slice.Empty() {
		// A pass-start re-check is queued (an event this iteration, after
		// fireReturns already ran, may have satisfied the pass condition):
		// fireReturns must evaluate it next cycle.
		h.ObserveNext()
	}
	if r.passActive {
		// An active pass processes or skips entries every cycle once its
		// ready point passes; never skip beyond that.
		if r.rallyReadyAt > r.cycle {
			h.Observe(r.rallyReadyAt)
		} else {
			h.ObserveNext()
		}
	}
	if r.st.valid {
		h.Observe(r.cachedTailEarliest())
	}
	if r.csb.CanDrain(r.drainLimit()) {
		// A drainable head store retries next cycle. A blocked head
		// (poisoned value, or younger than the outstanding checkpoint)
		// cannot unblock without a rally writeback, a miss return, or a
		// mode transition — all of which are covered by the horizons
		// above — so it contributes no event of its own.
		h.ObserveNext()
	}
	if len(r.ext) > 0 {
		h.Observe(r.ext[0].Cycle)
	}
	return h.Next()
}

// ---- poison bits and miss returns ----

// allocBit assigns a poison bit (round-robin, §3.4) to a new miss
// returning at the given cycle.
func (r *run) allocBit(ret int64) uint8 {
	b := uint8(r.bitNext % r.nBits)
	r.bitNext++
	r.bitPending[b]++
	r.busyBits |= 1 << b
	if len(r.pending) == 0 || ret < r.pendingMin {
		r.pendingMin = ret
	}
	r.pending = append(r.pending, pendingMiss{cycle: ret, bit: b})
	return 1 << b
}

// fireReturns retires pending misses whose data has arrived and starts or
// extends rally passes.
func (r *run) fireReturns() {
	if len(r.pending) > 0 && r.pendingMin <= r.cycle {
		live := r.pending[:0]
		newMin := int64(1)<<62 - 1
		for _, p := range r.pending {
			if p.cycle <= r.cycle {
				r.releaseBit(p.bit)
				r.passBits |= 1 << p.bit
				if r.passActive {
					r.retsDuring = true
				}
				r.recheckPass = true
			} else {
				live = append(live, p)
				if p.cycle < newMin {
					newMin = p.cycle
				}
			}
		}
		r.pending = live
		r.pendingMin = newMin
	}
	if r.recheckPass && !r.passActive {
		// A pass must run whenever any active entry waits on a bit whose
		// miss has returned — including entries that were (re)poisoned
		// with an already-returned bit after the last pass ended (e.g. a
		// tail load forwarding from a still-poisoned store). When the
		// check fails, clear the flag so the loop's guard goes quiet: any
		// event that could change the answer sets it again.
		if r.slice.Empty() {
			r.recheckPass = false
		} else if wb := r.waitingFreeBits(); wb != 0 {
			r.passBits = wb
			r.startPass()
		} else {
			r.recheckPass = false
		}
	}
}

func (r *run) startPass() {
	r.passActive = true
	r.retsDuring = false
	r.cursor = r.slice.head
	r.rallyReadyAt = r.cycle
	r.res.RallyPasses++
}

// endPass completes a rally pass; a return that fired mid-pass starts the
// next pass immediately.
func (r *run) endPass() {
	r.passActive = false
	r.passBits = 0
	if r.retsDuring && !r.slice.Empty() {
		// Returns fired mid-pass: entries before the cursor missed their
		// un-poisoning. Start the next pass over the free bits that still
		// have waiting entries.
		r.passBits = r.waitingFreeBits()
		if r.passBits != 0 {
			r.startPass()
			return
		}
	}
	if r.slice.Empty() {
		r.sig.Clear()
	}
	// Entries the pass left active may already wait on free bits (e.g.
	// re-poisoned from a store whose miss returned mid-pass): have
	// fireReturns re-evaluate the pass-start condition once.
	r.recheckPass = true
}

// releaseBit retires one outstanding miss on poison bit b.
func (r *run) releaseBit(b uint8) {
	if r.bitPending[b]--; r.bitPending[b] == 0 {
		r.busyBits &^= 1 << b
	}
}

// waitingFreeBits returns the union of poison bits that (a) have no
// outstanding miss and (b) appear on at least one active slice entry.
func (r *run) waitingFreeBits() uint8 {
	return ^r.busyBits & r.slice.ActivePoison()
}

// ---- store drains ----

// drainLimit is the oldest SSN allowed to leave the store buffer: while a
// checkpoint is outstanding, stores younger than it must stay buffered
// (they are the squash-recovery state).
func (r *run) drainLimit() uint64 {
	if r.mode == modeAdvance {
		return r.ckptSSN
	}
	return r.csb.Tail()
}

// drainStores writes at most one committed store per cycle to the cache.
func (r *run) drainStores() bool {
	addr, ok := r.csb.DrainNext(r.drainLimit())
	if !ok {
		return false
	}
	r.hier.Data(r.cycle, addr, true)
	return true
}

// ---- rally ----

// rallyStep processes the rally pass: up to eight skips and one
// instruction execution per cycle (§3.4: banked slice buffer).
func (r *run) rallyStep() bool {
	if !r.passActive {
		return false
	}
	if r.rallyReadyAt > r.cycle {
		return false
	}
	progress := false
	for skips := 0; skips < 8; {
		if r.cursor >= r.slice.End() {
			r.endPass()
			return progress
		}
		active, poison, present := r.slice.State(r.cursor)
		if !present || !active {
			r.cursor++
			continue // reclaimed or executed: free skip
		}
		if poison&r.passBits == 0 {
			if r.cfg.NonBlockingRally {
				// Not un-poisoned by this pass: banked skip. Skips consume
				// this cycle's skip bandwidth, so they count as progress
				// (otherwise skip-ahead would leap over the pass walk).
				r.cursor++
				skips++
				progress = true
				continue
			}
			// Blocking rallies cannot skip: fall through and wait.
		}
		if done := r.execSliceEntry(r.cursor); done {
			progress = true
		}
		return progress
	}
	return progress
}

// execSliceEntry attempts to execute the slice entry with the given id
// at the current cycle. It returns true if rally bandwidth was consumed.
func (r *run) execSliceEntry(id uint64) bool {
	m := r.slice.Meta(id)
	var in isa.Inst
	r.tr.Decode(m.idx, &in)

	// Gather register inputs: all slice-internal producers must have
	// executed; otherwise re-poison with their current wait bits.
	ready := r.cycle
	var waitBits uint8
	for _, s := range m.srcs {
		if s.kind != srcSlice {
			continue
		}
		if done, ok := r.slice.Executed(s.prod); ok {
			if done > ready {
				ready = done
			}
		} else if _, pp, present := r.slice.State(s.prod); present {
			waitBits |= pp
		}
	}
	if waitBits != 0 {
		if !r.cfg.NonBlockingRally {
			// Blocking rallies stall until the producers' misses return.
			r.rallyReadyAt = r.earliestReturn()
			return false
		}
		r.slice.SetPoison(id, waitBits)
		r.cursor++
		r.res.RallyInsts++
		return true
	}
	if ready > r.cycle {
		r.rallyReadyAt = ready // bypass wait within the slice
		return false
	}
	if !r.slots.TryTake(r.cycle, in.Op) {
		return false // port conflict with the tail this cycle
	}
	r.res.RallyInsts++

	done := r.cycle + 1
	switch in.Op {
	case isa.OpLoad:
		fwd := r.csb.Forward(m.ssn, in.Addr)
		switch {
		case fwd.Found && fwd.Poison != 0:
			// Memory dependence on a still-poisoned store.
			r.slice.SetPoison(id, fwd.Poison)
			r.cursor++
			return true
		case fwd.Found:
			r.checkValue(&in, fwd.Val)
			done = r.cycle + int64(r.cfg.DCachePipe) + int64(fwd.Hops)
		default:
			acc := r.hier.Data(r.cycle, in.Addr, false)
			if acc.Done > r.cycle+int64(r.cfg.DCachePipe)+2 {
				if r.cfg.NonBlockingRally {
					// Still (or newly) missing: re-poison and move on.
					r.slice.SetPoison(id, r.allocBit(acc.Done))
					r.cursor++
					return true
				}
				// Blocking rally: wait the miss out.
				done = acc.Done + int64(r.cfg.DCachePipe)
				r.rallyReadyAt = acc.Done
			} else {
				done = r.cycle + int64(r.cfg.DCachePipe)
				r.sigInsert(in.Addr)
			}
		}
	case isa.OpStore:
		r.csb.UpdateValue(m.storeSSN, in.Val)
	case isa.OpBranch, isa.OpJump, isa.OpCall, isa.OpRet:
		r.front.Train(&in)
		r.pendingBranches--
		if !m.predOK {
			r.squash(m.idx, m.ssn)
			return true
		}
	default:
		done = r.cycle + int64(in.Op.ExecLatency())
	}

	// Writeback: the rally scratch register file (RF1) always takes the
	// result, but nothing in this timing model reads it back, so it is
	// not kept; the main register file takes it only when this entry is
	// still the architecturally last writer (sequence number gate).
	if in.HasDst() {
		if r.board.Seq[in.Dst] == m.seq {
			r.board.Ready[in.Dst] = done
			r.board.Poison[in.Dst] = 0
			r.dirtyTail() // the staged tail may source this register
		}
	}
	r.slice.Deactivate(id, done)
	r.cursor++
	if done > r.finish {
		r.finish = done
	}
	return true
}

// earliestReturn gives the soonest pending miss return (for blocking
// rallies and skip-ahead).
func (r *run) earliestReturn() int64 {
	if len(r.pending) == 0 {
		return r.cycle + pipeline.HorizonFar
	}
	return r.pendingMin
}

// ---- tail ----

// dirtyTail invalidates the cached earliest-issue cycle of the staged
// tail instruction. Every state change that can move that cycle — a
// scoreboard writeback, a mode transition, a checkpoint restore — must
// call it; staging computes the cycle afresh, and other reads go through
// cachedTailEarliest.
func (r *run) dirtyTail() { r.stEarliestOK = false }

// cachedTailEarliest returns tailEarliest(), recomputed only when
// dirtyTail invalidated it. The tail re-checks its issue cycle every
// simulated cycle while stalled; the inputs only change on the events
// above, so the cache makes the per-cycle check O(1).
func (r *run) cachedTailEarliest() int64 {
	if !r.stEarliestOK {
		r.stEarliest = r.tailEarliest()
		r.stEarliestOK = true
	}
	return r.stEarliest
}

// tailEarliest computes the staged instruction's earliest issue cycle:
// the shared normal-mode gate, except that an advance-mode instruction
// with a poisoned source does not wait for its sources (it goes to the
// slice buffer).
func (r *run) tailEarliest() int64 {
	if r.mode == modeNormal || r.board.SrcPoison(&r.st.In) == 0 {
		return r.st.Earliest(&r.board, r.lastIssue)
	}
	return max(r.st.Avail, r.lastIssue)
}

// tailStep issues tail instructions into this cycle's remaining slots.
// maxPendingBranches bounds how many unresolved poisoned branches the
// tail may advance past before fetch gating pauses it.
const maxPendingBranches = 6

func (r *run) tailStep() bool {
	if r.passActive && !r.cfg.MultithreadRally {
		return false // rallies own the pipeline when not multithreaded
	}
	if r.mode == modeAdvance && r.pendingBranches >= maxPendingBranches {
		return false // confidence throttle: wait for rallies to resolve
	}
	progress := false
	for {
		if r.st.valid {
			if r.cachedTailEarliest() > r.cycle {
				return progress // staged and stalled: the common no-op cycle
			}
		} else {
			if r.i >= r.end {
				return progress
			}
			r.stage()
			if r.stEarliest > r.cycle {
				return progress
			}
		}
		if r.stallSSN != 0 {
			// SBLimited: a prior load is stalled on a colliding store.
			if r.csb.ssnComplete < r.stallSSN {
				return progress
			}
			r.stallSSN = 0
		}
		if !r.slots.TryTake(r.cycle, r.st.In.Op) {
			return progress
		}
		if !r.issueTail() {
			return progress
		}
		progress = true
	}
}

// stage stages the next tail instruction: its front-end state resolved
// exactly once, and its earliest issue cycle.
func (r *run) stage() {
	if !r.crossed && r.i >= r.meas {
		// First tail instruction of the measurement range: snapshot
		// every counter the result reports as a difference. A later
		// squash may rewind the cursor below meas; the latch stays set —
		// replay work caused inside the measurement range is charged to
		// it.
		r.crossed = true
		r.meter.Cross(r.finish, r.counters())
	}
	r.st.idx = r.i
	r.st.Stage(r.front, r.tr, r.i)
	r.st.valid = true
	r.i++
	r.stEarliest, r.stEarliestOK = r.tailEarliest(), true
}

// issueTail processes the staged instruction at the current cycle. It
// returns false if the instruction could not issue after all (structural
// stall) and must retry.
func (r *run) issueTail() bool {
	in := &r.st.In
	idx := r.st.idx
	t := r.cycle

	if r.mode == modeAdvance && r.board.SrcPoison(in) != 0 {
		if !r.sliceOut() {
			return false
		}
		r.st.valid = false
		r.lastIssue = t
		return true
	}

	var done int64
	switch in.Op {
	case isa.OpLoad:
		out, d := r.execLoad(idx, in, t)
		switch out {
		case loadStall:
			return false
		case loadSliced:
			r.st.valid = false
			r.lastIssue = t
			return true // fully handled via the slice path
		}
		done = d
	case isa.OpStore:
		if _, ok := r.csb.Insert(in.Addr, in.Val, 0, idx); !ok {
			r.stallAdvance(idx, &r.res.SBOverflows)
			return false
		}
		done = t + 1
	default:
		done = t + int64(in.Op.ExecLatency())
	}

	r.board.WriteDst(in, done, 0, r.nextSeq())
	if r.st.Resolve(r.front, t) {
		r.res.BranchMispredicts++
	}
	if r.mode == modeAdvance {
		r.res.AdvanceInsts++
	}
	if done > r.finish {
		r.finish = done
	}
	r.st.valid = false
	r.lastIssue = t
	return true
}

// nextSeq returns the instruction's last-writer sequence number: distance
// from the checkpoint while one is outstanding, zero otherwise.
func (r *run) nextSeq() uint64 {
	if r.mode != modeAdvance {
		return 0
	}
	r.seqCtr++
	return r.seqCtr
}

// loadOutcome reports how a tail load was handled.
type loadOutcome int

const (
	loadDone   loadOutcome = iota // executed; write back the result
	loadSliced                    // diverted to the slice buffer
	loadStall                     // structural stall; retry next cycle
)

// execLoad performs the tail load in at trace index idx: store-buffer
// forwarding, then the hierarchy; misses poison and slice (in advance
// mode) or trigger the transition (in normal mode).
func (r *run) execLoad(idx int, in *isa.Inst, t int64) (loadOutcome, int64) {
	pipe := int64(r.cfg.DCachePipe)

	fwd := r.csb.Forward(r.csb.Tail(), in.Addr)
	if fwd.StallSSN != 0 {
		r.stallSSN = fwd.StallSSN
		return loadStall, 0
	}
	if fwd.Found {
		if fwd.Poison != 0 {
			// Forward from a poisoned store: the load is miss-dependent.
			return r.poisonLoad(idx, in, fwd.Poison, 0), 0
		}
		r.checkValue(in, fwd.Val)
		return loadDone, t + pipe + int64(fwd.Hops)
	}

	acc := r.hier.Data(t, in.Addr, false)
	if acc.Done <= t+pipe+int64(r.cfg.FrontDepth) {
		r.sigInsert(in.Addr)
		d := acc.Done + pipe
		if m := t + pipe; d < m {
			d = m
		}
		return loadDone, d
	}

	// A real miss.
	if !r.cfg.Trigger.Fires(acc.Level, r.mode == modeAdvance) {
		// Configured not to advance under this miss level: behave like
		// the in-order baseline (stall on use).
		return loadDone, acc.Done + pipe
	}
	if r.mode == modeNormal {
		r.enterAdvance(idx)
	}
	return r.poisonLoad(idx, in, 0, acc.Done), 0
}

// poisonLoad diverts the missing or poison-forwarded load in, at trace
// index idx, into the slice buffer. inherited is the poison from a
// forwarding store (0 for a real miss returning at ret).
func (r *run) poisonLoad(idx int, in *isa.Inst, inherited uint8, ret int64) loadOutcome {
	var vec uint8
	e := sliceEntry{idx: idx, seq: r.nextSeq(), ssn: r.csb.Tail()}
	if inherited != 0 {
		vec = inherited
	} else {
		vec = r.allocBit(ret)
	}
	e.poison = vec
	r.captureSrcs(&e, in)
	id, ok := r.slice.Append(&e)
	if !ok {
		r.undoLoadPoison(inherited, vec)
		r.stallAdvance(idx, &r.res.SliceOverflows)
		return loadStall
	}
	r.noteWaiting(vec)
	r.board.WriteDst(in, r.cycle+1, vec, e.seq)
	if in.HasDst() {
		r.lastWriter[in.Dst] = id
	}
	r.res.AdvanceInsts++
	return loadSliced
}

// noteWaiting records that a new slice entry waits on poison vec. A bit
// of vec with no outstanding miss (poison inherited from a store whose
// miss came back) may satisfy the pass-start condition, so fireReturns
// must re-check it; bits still outstanding cannot.
func (r *run) noteWaiting(vec uint8) {
	if vec&^r.busyBits != 0 {
		r.recheckPass = true
	}
}

// undoLoadPoison rolls back a freshly allocated pending miss when the
// slice buffer rejected the load (the access itself stands — it becomes a
// prefetch).
func (r *run) undoLoadPoison(inherited, vec uint8) {
	if inherited != 0 {
		return
	}
	for b := uint8(0); int(b) < r.nBits; b++ {
		if vec == 1<<b {
			r.releaseBit(b)
			break
		}
	}
	if n := len(r.pending); n > 0 {
		dropped := r.pending[n-1]
		r.pending = r.pending[:n-1]
		if dropped.cycle == r.pendingMin {
			r.pendingMin = 1<<62 - 1
			for _, p := range r.pending {
				if p.cycle < r.pendingMin {
					r.pendingMin = p.cycle
				}
			}
		}
	}
	// The undone allocation may have freed a bit that slice entries wait
	// on; let fireReturns re-check.
	r.recheckPass = true
}

// sliceOut diverts a poisoned (miss-dependent) non-load-miss instruction
// into the slice buffer.
func (r *run) sliceOut() bool {
	in := &r.st.In
	if r.slice.Full() {
		// Check capacity before touching the store buffer: a poisoned
		// store inserted without a slice entry would never receive its
		// value and would block drains forever.
		r.stallAdvance(r.st.idx, &r.res.SliceOverflows)
		return false
	}
	e := sliceEntry{idx: r.st.idx, seq: r.nextSeq(), ssn: r.csb.Tail()}
	e.poison = r.board.SrcPoison(in)
	r.captureSrcs(&e, in)

	switch in.Op {
	case isa.OpStore:
		if in.Src1.Valid() && r.board.Poison[in.Src1] != 0 {
			// Poisoned address: cannot chain into the store buffer.
			r.stallAdvance(r.st.idx, &r.res.PoisonAddrObs)
			return false // stall until the address un-poisons (§3.4)
		}
		ssn, ok := r.csb.Insert(in.Addr, 0, e.poison, r.st.idx)
		if !ok {
			r.stallAdvance(r.st.idx, &r.res.SBOverflows)
			return false
		}
		e.storeSSN = ssn
	case isa.OpBranch, isa.OpJump, isa.OpCall, isa.OpRet:
		e.predOK = r.st.PredTaken == in.Taken
		r.pendingBranches++
	}

	id, ok := r.slice.Append(&e)
	if !ok {
		r.stallAdvance(r.st.idx, &r.res.SliceOverflows)
		return false
	}
	r.noteWaiting(e.poison)
	r.board.WriteDst(in, r.cycle+1, e.poison, e.seq)
	if in.HasDst() {
		r.lastWriter[in.Dst] = id
	}
	r.res.AdvanceInsts++
	return true
}

// captureSrcs records where each input comes from: a captured
// miss-independent side value, or an older slice entry.
func (r *run) captureSrcs(e *sliceEntry, in *isa.Inst) {
	srcs := [2]isa.Reg{in.Src1, in.Src2}
	for k, s := range srcs {
		switch {
		case !s.Valid():
			e.srcs[k] = sliceSrc{kind: srcNone}
		case r.board.Poison[s] != 0:
			e.srcs[k] = sliceSrc{kind: srcSlice, prod: r.lastWriter[s]}
		default:
			e.srcs[k] = sliceSrc{kind: srcCaptured}
		}
	}
}

// ---- mode transitions ----

// enterAdvance checkpoints the register file and transitions to advance
// mode. Unlike Runahead, nothing is flushed: the pipeline keeps flowing.
func (r *run) enterAdvance(idx int) {
	r.mode = modeAdvance
	r.res.Advances++
	r.ckpt = pipeline.TakeCheckpoint(&r.board, idx)
	r.ckptSSN = r.csb.Tail()
	r.seqCtr = 0
	r.board.Seq = [isa.NumRegs]uint64{}
	r.dirtyTail() // tailEarliest gates on the mode
}

// maybeExitAdvance returns to normal mode once the slice buffer is empty,
// no misses are pending, and no register is poisoned.
func (r *run) maybeExitAdvance() {
	if r.mode != modeAdvance {
		return
	}
	if r.slice.Empty() && len(r.pending) == 0 && !r.board.AnyPoisoned() {
		r.mode = modeNormal
		r.sig.Clear()
		r.dirtyTail() // tailEarliest gates on the mode
	}
}

// squash recovers from a mispredicted poisoned branch discovered during a
// rally: drop all state younger than the branch and resume execution at
// the branch itself.
//
// Recovering at the branch (rather than the epoch checkpoint) idealizes
// the recovery point: committed register state older than the branch is
// identified by the last-writer sequence numbers already maintained in
// RF0, so a replay from the branch reconstructs exactly the state a
// branch-local checkpoint would hold. DESIGN.md records this deviation
// from the paper's single-checkpoint description.
func (r *run) squash(branchIdx int, branchSSN uint64) {
	r.res.Squashes++
	// If a poisoned (value-pending) store older than the recovery point
	// survives, its slice entry is about to be discarded — roll the
	// recovery point back so that store re-executes.
	if ssn, idx, ok := r.csb.OldestPoisoned(branchSSN); ok {
		branchSSN = ssn - 1
		if idx < branchIdx {
			branchIdx = idx
		}
	}
	restoreAt := r.cycle + int64(r.cfg.FrontDepth)
	r.ckpt.Restore(&r.board, restoreAt)
	r.slice.Clear()
	r.csb.SquashTo(branchSSN)
	r.pending = r.pending[:0]
	r.bitPending = [8]int{}
	r.busyBits = 0
	r.passActive = false
	r.passBits = 0
	r.pendingBranches = 0
	r.sig.Clear()
	r.front.Flush(r.cycle)
	r.front.Redirect(r.cycle) // the mispredict itself
	r.res.BranchMispredicts++
	r.i = branchIdx
	r.st.valid = false
	r.dirtyTail()
	r.lastIssue = restoreAt
	r.mode = modeNormal
	r.stallSSN = 0
}

// sigInsert records a load that took its value from the cache in the
// §3.3 signature. Only externalStore probes the signature, so it is kept
// up to date only while the window has external-store events left to
// replay: once they are gone, its contents can never be observed.
func (r *run) sigInsert(addr uint64) {
	if len(r.ext) > 0 {
		r.sig.Insert(addr)
	}
}

// ExternalStore models a coherence probe from another processor (§3.3):
// if the address hits the load signature while a checkpoint is
// outstanding, iCFP squashes to the checkpoint. It reports whether a
// squash occurred.
func (r *run) externalStore(addr uint64) bool {
	if r.mode != modeAdvance {
		return false
	}
	if !r.sig.Probe(addr) {
		return false
	}
	// External conflicts squash to the epoch checkpoint (§3.3).
	r.squash(r.ckpt.Index, r.ckptSSN)
	return true
}

// stallAdvance begins (at most once per stall episode) a simple-runahead
// excursion and counts the episode against the given counter.
func (r *run) stallAdvance(idx int, counter *uint64) {
	if r.cycle < r.sraUntil {
		return
	}
	*counter++
	r.prefetchAhead(idx)
	r.sraUntil = r.earliestReturn()
}

// prefetchAhead approximates "simple runahead" mode (§3.4): when full
// advance cannot proceed (slice or store buffer exhausted, or a
// poisoned-address store), the machine keeps fetching and executing
// non-committing instructions for their prefetch effect. We model the
// prefetch effect without per-cycle simulation: walk forward issuing
// cache accesses for miss-independent loads until the next miss return.
func (r *run) prefetchAhead(from int) {
	horizon := r.earliestReturn()
	if horizon <= r.cycle {
		return
	}
	var poison [isa.NumRegs]bool
	for k := range poison {
		poison[k] = r.board.Poison[k] != 0
	}
	clock := r.cycle
	issued := 0
	for j := from + 1; j < r.end && clock < horizon && issued < 256; j++ {
		var in isa.Inst
		r.tr.Decode(j, &in)
		p := (in.Src1.Valid() && poison[in.Src1]) || (in.Src2.Valid() && poison[in.Src2])
		if in.HasDst() {
			poison[in.Dst] = p
		}
		if in.Op == isa.OpLoad && !p {
			r.hier.Prefetch(clock, in.Addr)
			issued++
		}
		if in.Op == isa.OpBranch && p {
			break // unknown direction: stop prefetching
		}
		clock += 1 // ~IPC 1 pacing for the non-committal walk
	}
}

// checkValue asserts functional forwarding correctness when enabled.
func (r *run) checkValue(in *isa.Inst, got uint64) {
	if r.cfg.CheckValues && got != in.Val {
		panic(fmt.Sprintf("icfp: forwarded value %#x != trace value %#x at pc %#x", got, in.Val, in.PC))
	}
}
