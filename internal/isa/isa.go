// Package isa defines the small RISC-like instruction set used by the
// simulator. Programs are represented as fully resolved dynamic traces:
// every instruction carries its operands, effective address, result value
// and branch outcome, stored packed (see Trace) and decoded on read.
// Timing models re-fetch instructions by trace index, which makes
// checkpoint/restore (needed by Runahead, Multipass, SLTP and iCFP) a
// matter of saving an index and a register snapshot.
package isa

import "fmt"

// Op is an instruction opcode class. Classes matter only insofar as they
// determine execution latency and issue-port requirements (Table 1 of the
// paper: 2-way superscalar, 2 integer units, 1 fp/load/store/branch unit).
type Op uint8

// Opcode classes.
const (
	OpNop    Op = iota
	OpALU       // 1-cycle integer op
	OpIMul      // 4-cycle integer multiply
	OpFAdd      // 2-cycle fp add
	OpFMul      // 4-cycle fp multiply
	OpLoad      // data-cache load (3-cycle D$ pipe on a hit)
	OpStore     // store: address+data, retires via the store buffer
	OpBranch    // conditional branch
	OpJump      // unconditional direct jump
	OpCall      // call (pushes RAS)
	OpRet       // return (pops RAS)
	numOps
)

var opNames = [numOps]string{
	"nop", "alu", "imul", "fadd", "fmul", "load", "store", "br", "jmp", "call", "ret",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsCtrl reports whether the op is a control transfer: OpBranch through
// OpRet, which the opcode list keeps adjacent.
func (o Op) IsCtrl() bool { return o >= OpBranch && o <= OpRet }

// ExecLatency returns the execution latency in cycles for non-memory ops.
// Loads and stores derive their latency from the memory hierarchy instead.
func (o Op) ExecLatency() int {
	switch o {
	case OpIMul, OpFMul:
		return 4
	case OpFAdd:
		return 2
	default:
		return 1
	}
}

// Reg names an architectural register. The machine has 32 integer and 32
// floating-point registers; RegNone marks an absent operand.
type Reg uint8

// Register file layout.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	// RegNone marks an absent source or destination operand.
	RegNone Reg = 255
)

// Valid reports whether r names a real register.
func (r Reg) Valid() bool { return r < NumRegs }

// IntReg returns the i'th integer register.
func IntReg(i int) Reg { return Reg(i) }

// FPReg returns the i'th floating-point register.
func FPReg(i int) Reg { return Reg(NumIntRegs + i) }

// String returns "rN" for integer and "fN" for fp registers.
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r < NumIntRegs:
		return fmt.Sprintf("r%d", uint8(r))
	case r < NumRegs:
		return fmt.Sprintf("f%d", uint8(r)-NumIntRegs)
	default:
		return fmt.Sprintf("reg(%d)", uint8(r))
	}
}

// Inst is one dynamic instruction in a resolved trace, decoded: a Trace
// stores instructions packed (see Trace) and Trace.At returns them as
// Inst values.
//
// The four 64-bit fields lead so the byte-wide ones pack into a single
// tail word: a value is 40 bytes, not the 56 that interleaving them
// would pad to, and every At copies one (TestInstRecordSize pins it).
// Trace.Checksum encodes field by field, so the layout never reaches
// its bytes.
type Inst struct {
	PC     uint64 // instruction address (drives I$ and branch prediction)
	Addr   uint64 // effective address for loads/stores
	Val    uint64 // result value (loads: loaded value; stores: stored value)
	Target uint64 // resolved target for taken control transfers
	Op     Op
	Dst    Reg   // destination register, RegNone if none
	Src1   Reg   // first source, RegNone if none
	Src2   Reg   // second source, RegNone if none
	Size   uint8 // access size in bytes for loads/stores
	Taken  bool  // resolved direction for branches
}

// HasDst reports whether the instruction writes a register.
func (in Inst) HasDst() bool { return in.Dst != RegNone }

// String renders the instruction for debugging and examples.
func (in Inst) String() string {
	switch in.Op {
	case OpLoad:
		return fmt.Sprintf("%#x: load [%#x] -> %s", in.PC, in.Addr, in.Dst)
	case OpStore:
		return fmt.Sprintf("%#x: store %s -> [%#x]", in.PC, in.Src2, in.Addr)
	case OpBranch:
		return fmt.Sprintf("%#x: br %s,%s taken=%v -> %#x", in.PC, in.Src1, in.Src2, in.Taken, in.Target)
	default:
		return fmt.Sprintf("%#x: %s %s,%s -> %s", in.PC, in.Op, in.Src1, in.Src2, in.Dst)
	}
}
