// Figure 1 micro-scenarios. Each returns a tiny workload whose miss
// pattern matches one of the paper's illustrative cases (a)–(f), plus a
// cache pre-warm hook so the pattern is exact: "L2 miss" lines start
// entirely uncached, "D$ miss" lines start in the L2 only, and everything
// else (code, hot data) starts fully cached.
package workload

import (
	"icfp/internal/isa"
	"icfp/internal/mem"
)

// Scenario identifies one of the Figure 1 cases.
type Scenario string

// The six miss scenarios of Figure 1.
const (
	ScenarioLoneL2          Scenario = "a-lone-l2"
	ScenarioIndependentL2   Scenario = "b-independent-l2"
	ScenarioDependentL2     Scenario = "c-dependent-l2"
	ScenarioChains          Scenario = "d-chains"
	ScenarioD1IndependentL2 Scenario = "e-dmiss-indep-l2"
	ScenarioD1DependentL2   Scenario = "f-dmiss-dep-l2"
)

// AllScenarios lists the Figure 1 scenarios in paper order.
var AllScenarios = []Scenario{
	ScenarioLoneL2, ScenarioIndependentL2, ScenarioDependentL2,
	ScenarioChains, ScenarioD1IndependentL2, ScenarioD1DependentL2,
}

// Data addresses used by scenarios; each lives on its own L1 and L2 line.
const (
	scnMissA = 0x9000_0000 // always cold -> memory miss
	scnMissE = 0x9100_0000 // always cold -> memory miss
	scnMissD = 0x9200_0000 // always cold -> memory miss
	scnDHitC = 0x9300_0000 // pre-warmed into L2 only -> D$ miss, L2 hit
	scnHot   = 0x9400_0000 // pre-warmed everywhere -> D$ hit
)

type scnBuilder struct {
	pc    uint64
	insts []isa.Inst
	mem   map[uint64]uint64 // words the scenario lays out; others read as zero
	l2    []uint64          // lines to pre-warm into L2 only
}

func newScn() *scnBuilder {
	return &scnBuilder{pc: codeBase, mem: map[uint64]uint64{}}
}

func (s *scnBuilder) next() uint64 { s.pc += 4; return s.pc - 4 }

func (s *scnBuilder) load(dst, addrReg isa.Reg, addr uint64) {
	s.insts = append(s.insts, isa.Inst{
		PC: s.next(), Op: isa.OpLoad, Dst: dst, Src1: addrReg,
		Addr: addr, Size: 8, Val: s.mem[addr],
	})
}

func (s *scnBuilder) alu(dst, s1, s2 isa.Reg) {
	s.insts = append(s.insts, isa.Inst{PC: s.next(), Op: isa.OpALU, Dst: dst, Src1: s1, Src2: s2})
}

func (s *scnBuilder) build(name string) *Workload {
	l2only := append([]uint64(nil), s.l2...)
	insts := s.insts
	return &Workload{
		Name:  name,
		Trace: &isa.Trace{Name: name, Insts: insts},
		Prewarm: func(h *mem.Hierarchy) {
			// Code and hot data are fully warm.
			for i := range insts {
				h.ICache.Insert(insts[i].PC, false)
				h.L2.Insert(insts[i].PC, false)
			}
			h.DCache.Insert(scnHot, false)
			h.L2.Insert(scnHot, false)
			// "D$ miss" lines live in the L2 only.
			for _, a := range l2only {
				h.L2.Insert(a, false)
			}
		},
	}
}

// Registers: rA..rH mirror the paper's boxed letters.
var (
	rA = isa.IntReg(10)
	rB = isa.IntReg(11)
	rC = isa.IntReg(12)
	rD = isa.IntReg(13)
	rE = isa.IntReg(14)
	rF = isa.IntReg(15)
	rG = isa.IntReg(16)
	rH = isa.IntReg(17)
)

// filler emits n independent single-cycle ops.
func (s *scnBuilder) filler(n int, base isa.Reg) {
	for i := 0; i < n; i++ {
		s.alu(isa.IntReg(20+i%8), base, isa.RegNone)
	}
}

// NewScenario builds the named Figure 1 case. The traces are deliberately
// longer than the figure's sketches (tens of filler instructions) so that
// pipelines have real work to overlap with the misses.
func NewScenario(sc Scenario) *Workload {
	s := newScn()
	switch sc {
	case ScenarioLoneL2:
		// A: L2 miss; B depends on A; C..F independent.
		s.load(rA, regZero, scnMissA)
		s.alu(rB, rA, isa.RegNone)
		s.filler(40, regZero)

	case ScenarioIndependentL2:
		// A and E are independent L2 misses; B dep A, F dep E; G,H tail.
		s.load(rA, regZero, scnMissA)
		s.alu(rB, rA, isa.RegNone)
		s.filler(10, regZero)
		s.load(rE, regZero, scnMissE)
		s.alu(rF, rE, isa.RegNone)
		s.filler(30, regZero)

	case ScenarioDependentL2:
		// E's address depends on A's value: dependent L2 misses.
		// Memory holds a pointer at A's location.
		s.mem[scnMissA] = scnMissE
		s.load(rA, regZero, scnMissA)
		s.filler(8, regZero)
		s.load(rE, rA, scnMissE) // address from rA
		s.alu(rF, rE, isa.RegNone)
		s.filler(30, regZero)

	case ScenarioChains:
		// Two independent chains of dependent misses: A->B and E->F.
		s.mem[scnMissA] = scnMissD
		s.mem[scnMissE] = scnMissD + 0x100_0000
		s.load(rA, regZero, scnMissA)
		s.load(rB, rA, scnMissD) // dep miss on A
		s.filler(6, regZero)
		s.load(rE, regZero, scnMissE)
		s.load(rF, rE, scnMissD+0x100_0000) // dep miss on E
		s.filler(30, regZero)

	case ScenarioD1IndependentL2:
		// Under L2 miss A: a D$ miss C, then an L2 miss D *independent*
		// of C. Blocking on C delays D; poisoning C lets D overlap A.
		s.load(rA, regZero, scnMissA)
		s.alu(rB, rA, isa.RegNone)
		s.filler(4, regZero)
		s.l2 = append(s.l2, scnDHitC)
		s.load(rC, regZero, scnDHitC)
		s.filler(4, regZero)
		s.load(rD, regZero, scnMissD) // independent of C
		s.alu(rE, rD, isa.RegNone)
		s.filler(30, regZero)

	case ScenarioD1DependentL2:
		// Under L2 miss A: a D$ miss C whose value feeds L2 miss D.
		s.mem[scnDHitC] = scnMissD
		s.load(rA, regZero, scnMissA)
		s.alu(rB, rA, isa.RegNone)
		s.filler(4, regZero)
		s.l2 = append(s.l2, scnDHitC)
		s.load(rC, regZero, scnDHitC)
		s.filler(4, regZero)
		s.load(rD, rC, scnMissD) // address from C
		s.alu(rE, rD, isa.RegNone)
		s.filler(30, regZero)

	default:
		panic("workload: unknown scenario " + string(sc))
	}
	return s.build(string(sc))
}
