package inorder

import (
	"testing"

	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

// tinyWorkload builds a trace from instructions with a warm-code prewarm
// so timing tests measure data behaviour, not cold I$ misses.
func tinyWorkload(insts []isa.Inst) *workload.Workload {
	return &workload.Workload{
		Name:  "tiny",
		Trace: isa.NewTrace("tiny", insts),
		Prewarm: func(h *mem.Hierarchy) {
			for i := range insts {
				h.ICache.Insert(insts[i].PC, false)
				h.L2.Insert(insts[i].PC, false)
			}
		},
	}
}

func run(t *testing.T, w *workload.Workload) pipeline.Result {
	t.Helper()
	m := New(pipeline.DefaultConfig())
	return m.Run(w)
}

// runWarm simulates a SPEC-profile workload with a warmup prefix, as the
// paper's sampling methodology does.
func runWarm(t *testing.T, name string, warm, timed int) pipeline.Result {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = warm
	return New(cfg).Run(workload.SPEC(name, warm+timed))
}

func seqALU(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC: uint64(0x1000 + 4*i), Op: isa.OpALU,
			Dst: isa.IntReg(8 + i%8), Src1: isa.IntReg(1), Src2: isa.RegNone,
		}
	}
	return insts
}

func TestIndependentALUReachesWidth2(t *testing.T) {
	r := run(t, tinyWorkload(seqALU(2000)))
	if ipc := r.IPC(); ipc < 1.5 {
		t.Fatalf("independent ALU IPC = %.2f, want near 2", ipc)
	}
}

func TestDependentChainIPC1(t *testing.T) {
	insts := make([]isa.Inst, 1000)
	for i := range insts {
		insts[i] = isa.Inst{
			PC: uint64(0x1000 + 4*i), Op: isa.OpALU,
			Dst: isa.IntReg(8), Src1: isa.IntReg(8), Src2: isa.RegNone,
		}
	}
	r := run(t, tinyWorkload(insts))
	if ipc := r.IPC(); ipc > 1.05 {
		t.Fatalf("dependent chain IPC = %.2f, must be <= 1", ipc)
	}
}

func TestMemPortLimitsLoads(t *testing.T) {
	// All loads to one warm line: limited by the single mem port -> IPC <= 1.
	insts := make([]isa.Inst, 1000)
	for i := range insts {
		insts[i] = isa.Inst{
			PC: uint64(0x1000 + 4*i), Op: isa.OpLoad,
			Dst: isa.IntReg(8 + i%8), Src1: isa.IntReg(1), Addr: 0x100000, Size: 8,
		}
	}
	w := tinyWorkload(insts)
	r := run(t, w)
	if ipc := r.IPC(); ipc > 1.02 {
		t.Fatalf("load-only IPC = %.2f, must be <= 1 (one mem port)", ipc)
	}
}

func TestStallOnUseNotOnMiss(t *testing.T) {
	// A load that misses to memory followed by many independent ALU ops:
	// the pipeline must keep issuing the ALU ops (no stall until use).
	insts := []isa.Inst{
		{PC: 0x1000, Op: isa.OpLoad, Dst: isa.IntReg(20), Src1: isa.IntReg(1), Addr: 0x900000, Size: 8},
	}
	insts = append(insts, seqALU(400)...)
	for i := 1; i < len(insts); i++ {
		insts[i].PC = uint64(0x2000 + 4*i)
	}
	r := run(t, tinyWorkload(insts))
	// 400 independent ALU ops at ~2/cycle ≈ 200 cycles; the 400-cycle miss
	// dominates only if we waited for it. Since nothing uses r20, total
	// cycles must reflect the miss data arriving (~400) but not a stall of
	// 400 + 200.
	if r.Cycles > 550 {
		t.Fatalf("cycles = %d; miss-independent work must proceed under the miss", r.Cycles)
	}

	// Now the same with an immediate use: must serialize.
	use := append([]isa.Inst{}, insts[0])
	use = append(use, isa.Inst{PC: 0x1004, Op: isa.OpALU, Dst: isa.IntReg(21), Src1: isa.IntReg(20)})
	use = append(use, seqALU(400)...)
	for i := 2; i < len(use); i++ {
		use[i].PC = uint64(0x2000 + 4*i)
	}
	r2 := run(t, tinyWorkload(use))
	if r2.Cycles < 550 {
		t.Fatalf("cycles = %d; use of missing value must stall the in-order pipe", r2.Cycles)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// Store to a cold line, then immediately load it back: forwarding
	// must avoid waiting for the store's cache miss.
	insts := []isa.Inst{
		{PC: 0x1000, Op: isa.OpStore, Src1: isa.IntReg(1), Src2: isa.IntReg(2), Addr: 0x900000, Size: 8, Val: 77},
		{PC: 0x1004, Op: isa.OpLoad, Dst: isa.IntReg(8), Src1: isa.IntReg(1), Addr: 0x900000, Size: 8, Val: 77},
		{PC: 0x1008, Op: isa.OpALU, Dst: isa.IntReg(9), Src1: isa.IntReg(8)},
	}
	r := run(t, tinyWorkload(insts))
	if r.Cycles > 50 {
		t.Fatalf("cycles = %d; load must forward from the store buffer", r.Cycles)
	}
}

func TestBranchMispredictsCounted(t *testing.T) {
	// Random-outcome branches must yield mispredicts.
	r := runWarm(t, "gcc", 10000, 20000)
	if r.BranchMispredicts == 0 {
		t.Fatal("gcc-profile run must mispredict sometimes")
	}
}

func TestMissStatsPopulated(t *testing.T) {
	r := runWarm(t, "mcf", 10000, 30000)
	if r.DCacheMissPerKI < 10 {
		t.Fatalf("mcf D$ miss/KI = %.1f, want substantial", r.DCacheMissPerKI)
	}
	if r.L2MissPerKI <= 0 {
		t.Fatal("mcf must have L2 misses")
	}
	if r.DCacheMLP < 1 {
		t.Fatalf("DCacheMLP = %.2f, must be >= 1 with misses", r.DCacheMLP)
	}
}

func TestLowMissWorkloadFast(t *testing.T) {
	r := runWarm(t, "mesa", 20000, 20000)
	if ipc := r.IPC(); ipc < 0.8 {
		t.Fatalf("mesa IPC = %.2f, want near-ideal for a low-miss workload", ipc)
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := workload.SPEC("vpr", 10000)
	r1 := New(pipeline.DefaultConfig()).Run(w)
	w2 := workload.SPEC("vpr", 10000)
	r2 := New(pipeline.DefaultConfig()).Run(w2)
	if r1.Cycles != r2.Cycles || r1.Insts != r2.Insts {
		t.Fatalf("same workload, different results: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

func TestPointerChaseSlowerThanStreaming(t *testing.T) {
	chase := runWarm(t, "mcf", 10000, 30000)
	str := runWarm(t, "applu", 10000, 30000)
	if chase.IPC() >= str.IPC() {
		t.Fatalf("mcf IPC %.3f must be well below applu IPC %.3f", chase.IPC(), str.IPC())
	}
}
