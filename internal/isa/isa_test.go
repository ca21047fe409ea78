package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestInstRecordSize pins the decoded instruction at 40 bytes: four
// 64-bit fields plus six byte-wide ones packed into one tail word. Every
// decode writes one, so a field order that lets padding back in (56
// bytes) costs 40% more per instruction read.
func TestInstRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d bytes, want 40", got)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpNop: "nop", OpALU: "alu", OpIMul: "imul", OpFAdd: "fadd",
		OpFMul: "fmul", OpLoad: "load", OpStore: "store", OpBranch: "br",
		OpJump: "jmp", OpCall: "call", OpRet: "ret",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("out-of-range op = %q", got)
	}
}

func TestOpClassification(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() {
		t.Error("load/store must be memory ops")
	}
	if OpALU.IsMem() || OpBranch.IsMem() {
		t.Error("alu/branch must not be memory ops")
	}
	for _, op := range []Op{OpBranch, OpJump, OpCall, OpRet} {
		if !op.IsCtrl() {
			t.Errorf("%s must be control", op)
		}
	}
	for _, op := range []Op{OpALU, OpLoad, OpStore, OpNop} {
		if op.IsCtrl() {
			t.Errorf("%s must not be control", op)
		}
	}
}

func TestExecLatency(t *testing.T) {
	cases := map[Op]int{
		OpALU: 1, OpIMul: 4, OpFAdd: 2, OpFMul: 4, OpNop: 1, OpBranch: 1,
	}
	for op, want := range cases {
		if got := op.ExecLatency(); got != want {
			t.Errorf("%s latency = %d, want %d", op, got, want)
		}
	}
}

func TestRegNaming(t *testing.T) {
	if IntReg(5).String() != "r5" {
		t.Errorf("IntReg(5) = %s", IntReg(5))
	}
	if FPReg(3).String() != "f3" {
		t.Errorf("FPReg(3) = %s", FPReg(3))
	}
	if RegNone.String() != "-" {
		t.Errorf("RegNone = %s", RegNone)
	}
	if RegNone.Valid() {
		t.Error("RegNone must not be valid")
	}
	if !IntReg(0).Valid() || !FPReg(31).Valid() {
		t.Error("architectural registers must be valid")
	}
	if Reg(NumRegs).Valid() {
		t.Error("register beyond file must be invalid")
	}
	if !OpRet.Valid() || numOps.Valid() {
		t.Error("Op.Valid must accept exactly the opcode classes")
	}
}

func TestRegPartition(t *testing.T) {
	// Integer and FP registers must not alias.
	seen := map[Reg]bool{}
	for i := 0; i < NumIntRegs; i++ {
		seen[IntReg(i)] = true
	}
	for i := 0; i < NumFPRegs; i++ {
		if seen[FPReg(i)] {
			t.Fatalf("FPReg(%d) aliases an integer register", i)
		}
	}
}

func TestHasDst(t *testing.T) {
	with := Inst{Dst: IntReg(1)}
	without := Inst{Dst: RegNone}
	if !with.HasDst() || without.HasDst() {
		t.Error("HasDst misclassifies")
	}
}

func TestTraceAccess(t *testing.T) {
	tr := NewTrace("t", []Inst{{PC: 4}, {PC: 8}})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.At(1).PC != 8 {
		t.Errorf("At(1).PC = %#x", tr.At(1).PC)
	}
}

// randomInsts returns n instructions drawn to break every packing rule
// at once: PCs from a small pool with random registers and sizes (so
// static tuples repeat and differ), any opcode byte, Taken on any op,
// Addrs on non-memory ops, and taken transfers whose target is mostly,
// but not always, the next instruction's PC.
func randomInsts(rng *rand.Rand, n int) []Inst {
	insts := make([]Inst, n)
	reg := func() Reg {
		if rng.Intn(4) == 0 {
			return RegNone
		}
		return Reg(rng.Intn(NumRegs))
	}
	for i := range insts {
		in := &insts[i]
		in.PC = 0x1000 + 4*uint64(rng.Intn(64))
		in.Op = Op(rng.Intn(int(numOps) + 1))
		in.Dst, in.Src1, in.Src2 = reg(), reg(), reg()
		in.Size = uint8(rng.Intn(3) * 4)
		in.Val = rng.Uint64() >> uint(rng.Intn(64))
		in.Taken = rng.Intn(3) == 0
		if in.Op.IsMem() || rng.Intn(10) == 0 {
			in.Addr = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	for i := range insts {
		in := &insts[i]
		switch r := rng.Intn(10); {
		case in.Taken && in.Op.IsCtrl() && i+1 < n && r < 8:
			in.Target = insts[i+1].PC
		case r < 9:
			in.Target = 0
		default:
			in.Target = rng.Uint64()
		}
	}
	return insts
}

// TestTracePacksLossless pins that packing keeps every field of every
// instruction, whatever breaks the static-table, Addr and Target rules,
// across lengths around the 64-instruction Addr blocks and past an
// Addr chunk, read back through At and Decode; and that a builder sized
// too small grows rather than losing instructions.
func TestTracePacksLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 129, 3 * addrChunk} {
		insts := randomInsts(rng, n)
		small := NewBuilder("small", 1)
		for i := range insts {
			small.Append(&insts[i])
		}
		for _, tr := range []*Trace{NewTrace("exact", insts), small.Trace()} {
			if tr.Len() != n {
				t.Fatalf("%s n=%d: Len = %d", tr.Name, n, tr.Len())
			}
			var in Inst
			for i, want := range insts {
				tr.Decode(i, &in)
				if got := tr.At(i); got != want || in != want {
					t.Fatalf("%s n=%d instruction %d: At %+v, Decode %+v, want %+v",
						tr.Name, n, i, got, in, want)
				}
			}
		}
	}
}

// TestNewBuilderNeverRegrows pins the builder's sizing contract: up to
// the length it was built for, its per-instruction arrays keep the
// capacity it gave them.
func TestNewBuilderNeverRegrows(t *testing.T) {
	insts := randomInsts(rand.New(rand.NewSource(2)), 5000)
	b := NewBuilder("t", len(insts)+7)
	for i := range insts {
		b.Append(&insts[i])
	}
	if tr := b.Trace(); tr.Cap() != len(insts)+7 {
		t.Fatalf("Cap = %d, want the %d the builder was sized for", tr.Cap(), len(insts)+7)
	}
}

func TestInstString(t *testing.T) {
	// String must not panic and must mention the PC for every op class.
	for op := OpNop; op < numOps; op++ {
		in := Inst{PC: 0x40, Op: op, Dst: IntReg(1), Src1: IntReg(2), Src2: IntReg(3)}
		if s := in.String(); s == "" {
			t.Errorf("empty String for %s", op)
		}
	}
}

func TestRegStringTotal(t *testing.T) {
	// Property: String never panics for any byte value.
	f := func(b uint8) bool { return Reg(b).String() != "" }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
