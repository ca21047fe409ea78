package pipeline

import (
	"reflect"
	"testing"

	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
)

func TestSlotAllocPorts(t *testing.T) {
	cfg := DefaultConfig() // 2-wide, 2 int, 1 memfpbr
	s := NewSlotAlloc(&cfg)
	if c := s.Take(10, isa.OpALU); c != 10 {
		t.Fatalf("first int at %d", c)
	}
	if c := s.Take(10, isa.OpALU); c != 10 {
		t.Fatalf("second int at %d", c)
	}
	// Width exhausted: third op moves to cycle 11.
	if c := s.Take(10, isa.OpALU); c != 11 {
		t.Fatalf("third int at %d, want 11", c)
	}
	if c := s.Take(11, isa.OpLoad); c != 11 {
		t.Fatalf("load at %d", c)
	}
	// Only one mem/fp/br port per cycle.
	if c := s.Take(11, isa.OpBranch); c != 12 {
		t.Fatalf("branch at %d, want 12", c)
	}
}

func TestSlotAllocPeekDoesNotMutate(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSlotAlloc(&cfg)
	s.Take(5, isa.OpLoad)
	if p := s.Peek(5, isa.OpStore); p != 6 {
		t.Fatalf("peek = %d, want 6 (mem port busy)", p)
	}
	// Peek must not have consumed anything.
	if c := s.Take(5, isa.OpALU); c != 5 {
		t.Fatalf("int slot consumed by peek: %d", c)
	}
}

func TestSlotAllocTryTake(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSlotAlloc(&cfg)
	if !s.TryTake(7, isa.OpLoad) {
		t.Fatal("first load must fit")
	}
	if s.TryTake(7, isa.OpStore) {
		t.Fatal("second mem op must not fit at the same cycle")
	}
	if !s.TryTake(8, isa.OpStore) {
		t.Fatal("next cycle must fit")
	}
}

func TestScoreboard(t *testing.T) {
	var b Scoreboard
	in := &isa.Inst{Op: isa.OpALU, Dst: isa.IntReg(3), Src1: isa.IntReg(1), Src2: isa.IntReg(2)}
	b.Ready[isa.IntReg(1)] = 10
	b.Ready[isa.IntReg(2)] = 20
	if r := b.SrcReady(in); r != 20 {
		t.Fatalf("SrcReady = %d", r)
	}
	b.Poison[isa.IntReg(2)] = 0b101
	if p := b.SrcPoison(in); p != 0b101 {
		t.Fatalf("SrcPoison = %b", p)
	}
	b.WriteDst(in, 42, 0b1, 7)
	if b.Ready[in.Dst] != 42 || b.Poison[in.Dst] != 1 || b.Seq[in.Dst] != 7 {
		t.Fatal("WriteDst did not record state")
	}
	if !b.AnyPoisoned() {
		t.Fatal("poison must be visible")
	}
	b.ClearPoison()
	if b.AnyPoisoned() {
		t.Fatal("ClearPoison failed")
	}
	for r := range b.Poison {
		b.Poison[r] = 0b1000_0000
		if !b.AnyPoisoned() {
			t.Fatalf("poison on register %d not visible", r)
		}
		b.Poison[r] = 0
	}
}

func TestCheckpointRestore(t *testing.T) {
	var b Scoreboard
	b.Ready[5] = 100
	b.Seq[5] = 9
	ck := TakeCheckpoint(&b, 42)
	b.Ready[5] = 999
	b.Poison[5] = 1
	b.Seq[5] = 10
	ck.Restore(&b, 500)
	if b.Ready[5] != 500 {
		t.Fatalf("restored ready = %d (value available at restore time)", b.Ready[5])
	}
	if b.Poison[5] != 0 || b.Seq[5] != 9 {
		t.Fatal("restore must clear poison and rewind seq")
	}
	// An in-flight value completing after the restore keeps its time.
	var c Scoreboard
	c.Ready[1] = 800
	ck2 := TakeCheckpoint(&c, 0)
	c.Ready[1] = 5
	ck2.Restore(&c, 500)
	if c.Ready[1] != 800 {
		t.Fatalf("late value must keep its completion: %d", c.Ready[1])
	}
}

func TestRunaheadCache(t *testing.T) {
	rc := NewRunaheadCache(2)
	rc.Put(0x100, 1, 0)
	rc.Put(0x200, 2, 3)
	if v, p, ok := rc.Get(0x200); !ok || v != 2 || p != 3 {
		t.Fatalf("Get = %d,%d,%v", v, p, ok)
	}
	rc.Put(0x300, 3, 0) // evicts 0x100 (FIFO)
	if _, _, ok := rc.Get(0x100); ok {
		t.Fatal("FIFO eviction expected")
	}
	if rc.Evictions != 1 || rc.Len() != 2 {
		t.Fatalf("evictions=%d len=%d", rc.Evictions, rc.Len())
	}
	rc.Put(0x200, 9, 0) // update in place: no eviction
	if rc.Evictions != 1 {
		t.Fatal("update must not evict")
	}
	rc.Clear()
	if rc.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestStoreBufferForwardAndDrain(t *testing.T) {
	h := mem.New(mem.DefaultConfig())
	sb := NewStoreBuffer(4, h)
	sb.Insert(10, 0x1000, 55)
	if v, ok := sb.Forward(11, 0x1000); !ok || v != 55 {
		t.Fatalf("forward = %d,%v", v, ok)
	}
	// After the drain completes the entry is gone.
	done := sb.DrainDone()
	if _, ok := sb.Forward(done+1, 0x1000); ok {
		t.Fatal("drained store must not forward")
	}
}

func TestStoreBufferCapacityStall(t *testing.T) {
	h := mem.New(mem.DefaultConfig())
	sb := NewStoreBuffer(2, h)
	// Two misses fill the buffer; their drains take hundreds of cycles.
	sb.Insert(0, 0x10000, 1)
	sb.Insert(0, 0x20000, 2)
	if free := sb.FullUntil(1); free <= 1 {
		t.Fatalf("full buffer must stall: FullUntil = %d", free)
	}
}

func TestFrontendBandwidthAndRedirect(t *testing.T) {
	cfg := DefaultConfig()
	h := mem.New(cfg.Hier)
	p := bpred.New(cfg.Bpred)
	// Warm the line so fetch is not I$-bound.
	h.ICache.Insert(0x1000, false)
	h.L2.Insert(0x1000, false)
	f := NewFrontend(&cfg, h, p)
	in := &isa.Inst{PC: 0x1000, Op: isa.OpALU}
	c1 := f.Avail(in)
	c2 := f.Avail(in)
	c3 := f.Avail(in)
	if c1 != c2 {
		t.Fatalf("2-wide fetch: %d vs %d", c1, c2)
	}
	if c3 != c1+1 {
		t.Fatalf("third instruction must wait a cycle: %d vs %d", c3, c1)
	}
	f.Redirect(100)
	if c := f.Avail(in); c < 100+int64(cfg.FrontDepth) {
		t.Fatalf("post-redirect avail = %d, want >= %d", c, 100+cfg.FrontDepth)
	}
	if f.Mispredicts != 1 {
		t.Fatalf("Mispredicts = %d", f.Mispredicts)
	}
}

func TestFrontendIcacheMissStallsFetch(t *testing.T) {
	cfg := DefaultConfig()
	h := mem.New(cfg.Hier)
	p := bpred.New(cfg.Bpred)
	f := NewFrontend(&cfg, h, p)
	in := &isa.Inst{PC: 0x1000, Op: isa.OpALU}
	c := f.Avail(in) // cold I$: miss to memory
	if c < int64(cfg.Hier.MemLat) {
		t.Fatalf("cold ifetch available at %d, must wait for memory", c)
	}
}

func TestWarmupPopulatesStructures(t *testing.T) {
	cfg := DefaultConfig()
	h := mem.New(cfg.Hier)
	p := bpred.New(cfg.Bpred)
	tr := isa.NewTrace("warm", []isa.Inst{
		{PC: 0x1000, Op: isa.OpLoad, Dst: isa.IntReg(1), Addr: 0x5000, Size: 8},
		{PC: 0x1004, Op: isa.OpBranch, Src1: isa.IntReg(1), Taken: true, Target: 0x1000},
	})
	WarmRange(h, p, tr, 0, 2)
	if h.ProbeData(0x5000) != mem.LevelL1 {
		t.Fatal("warmup must fill the D$")
	}
	if !h.ICache.Probe(0x1000) {
		t.Fatal("warmup must fill the I$")
	}
	if tgt, ok := p.PredictTarget(0x1004); !ok || tgt != 0x1000 {
		t.Fatal("warmup must train the BTB")
	}
}

// TestWarmRangeTrainsAsPredictThenUpdate pins functional warming's
// predictor state, counters included, to what predicting and then
// training each conditional branch leaves.
func TestWarmRangeTrainsAsPredictThenUpdate(t *testing.T) {
	cfg := DefaultConfig()
	var insts []isa.Inst
	for i := range 3000 {
		pc := 0x1000 + 4*uint64(i%40)
		insts = append(insts, isa.Inst{PC: pc, Op: isa.OpBranch, Src1: isa.RegNone, Src2: isa.RegNone, Taken: i%3 != 0 && i%7 != 0})
	}
	for i := range insts[:len(insts)-1] {
		if insts[i].Taken {
			insts[i].Target = insts[i+1].PC
		}
	}
	tr := isa.NewTrace("branches", insts)
	got, want := bpred.New(cfg.Bpred), bpred.New(cfg.Bpred)
	WarmRange(mem.New(cfg.Hier), got, tr, 0, tr.Len())
	for _, in := range insts {
		want.Predict(in.PC)
		want.Update(in.PC, in.Taken)
		if in.Taken {
			want.UpdateTarget(in.PC, in.Target)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warmed predictor differs from Predict then Update: lookups %d/%d, mispredicts %d/%d",
			got.Lookups, want.Lookups, got.Mispredicts, want.Mispredicts)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Cycles: 200, Insts: 100}
	if r.IPC() != 0.5 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	base := Result{Cycles: 300}
	if sp := r.SpeedupOver(base); sp != 50 {
		t.Fatalf("speedup = %v, want 50", sp)
	}
	var zero Result
	if zero.IPC() != 0 || zero.SpeedupOver(base) != 0 {
		t.Fatal("zero-cycle results must not divide by zero")
	}
}

func TestTriggerString(t *testing.T) {
	for tr, want := range map[AdvanceTrigger]string{
		TriggerL2Only: "L2-only", TriggerPrimaryD1: "L2+primaryD$",
		TriggerAll: "all", AdvanceTrigger(9): "?",
	} {
		if tr.String() != want {
			t.Errorf("%d = %q", tr, tr.String())
		}
	}
}

func TestFrontendCallReturnUsesRAS(t *testing.T) {
	cfg := DefaultConfig()
	h := mem.New(cfg.Hier)
	p := bpred.New(cfg.Bpred)
	// Warm code lines.
	for _, pc := range []uint64{0x1000, 0x2000} {
		h.ICache.Insert(pc, false)
		h.L2.Insert(pc, false)
	}
	f := NewFrontend(&cfg, h, p)

	call := &isa.Inst{PC: 0x1000, Op: isa.OpCall, Taken: true, Target: 0x2000}
	ret := &isa.Inst{PC: 0x2000, Op: isa.OpRet, Taken: true, Target: 0x1004}

	f.Avail(call)
	if !f.Predict(call) {
		t.Fatal("calls are always predicted taken")
	}
	f.Avail(ret)
	before := f.avail
	if !f.Predict(ret) {
		t.Fatal("returns are always predicted taken")
	}
	// A RAS hit means no target bubble was charged.
	if f.avail != before {
		t.Fatalf("RAS hit must not bubble: avail %d -> %d", before, f.avail)
	}

	// A return with an empty RAS (mismatched target) costs a bubble the
	// first time (BTB cold).
	f2 := NewFrontend(&cfg, h, bpred.New(cfg.Bpred))
	f2.Avail(ret)
	b2 := f2.avail
	f2.Predict(ret)
	if f2.avail == b2 {
		t.Fatal("cold return without RAS must charge a target bubble")
	}
}
