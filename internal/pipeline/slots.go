package pipeline

import "icfp/internal/isa"

// SlotAlloc tracks issue-port usage cycle by cycle: Width total slots, of
// which at most IntPorts may be integer ops and at most MemFPBrPorts may
// be fp/load/store/branch ops (Table 1: "2-way superscalar, 2 integer,
// 1 fp/load/store/branch").
//
// Issue times must be requested in non-decreasing order; the allocator
// advances an internal current cycle and resets counts on each new cycle.
type SlotAlloc struct {
	cycle int64
	total int    // slots used in cycle
	used  [2]int // slots used in cycle, per port class (portClass)
	width int
	limit [2]int // ports per class
}

// NewSlotAlloc builds an allocator for cfg's port plan, which it reads
// once.
func NewSlotAlloc(cfg *Config) *SlotAlloc {
	return &SlotAlloc{cycle: -1, width: cfg.Width, limit: [2]int{cfg.IntPorts, cfg.MemFPBrPorts}}
}

// memFPBrOps is the set of ops that issue on the shared
// fp/load/store/branch port, one bit per op.
const memFPBrOps = 1<<isa.OpLoad | 1<<isa.OpStore | 1<<isa.OpFAdd | 1<<isa.OpFMul |
	1<<isa.OpBranch | 1<<isa.OpJump | 1<<isa.OpCall | 1<<isa.OpRet

// portClass returns op's port class: 1 for the shared
// fp/load/store/branch port, 0 for an integer port.
func portClass(op isa.Op) int { return int(uint64(memFPBrOps) >> op & 1) }

// IsMemFPBr reports whether op issues on the shared fp/load/store/branch
// port (as opposed to an integer port).
func IsMemFPBr(op isa.Op) bool { return portClass(op) == 1 }

func (s *SlotAlloc) advanceTo(cycle int64) {
	if cycle > s.cycle {
		s.cycle, s.total, s.used[0], s.used[1] = cycle, 0, 0, 0
	}
}

// StrictTake (test-only) makes Take walk one cycle at a time
// (takeStrict) instead of jumping straight to the next fitting cycle.
// Simulated behaviour must be identical either way: the strict
// equivalence suites of the instruction-driven cores set it to check
// the jump against the trivially correct walk.
var StrictTake = false

// Take allocates a slot for op at the earliest cycle >= earliest and
// returns that cycle.
func (s *SlotAlloc) Take(earliest int64, op isa.Op) int64 {
	if StrictTake {
		return s.takeStrict(earliest, op)
	}
	s.advanceTo(earliest)
	for !s.fits(op) {
		s.advanceTo(s.cycle + 1)
	}
	s.use(op)
	return s.cycle
}

// takeStrict is Take without the skip: it steps the allocator one cycle
// at a time from the current cycle until op fits. The result and end
// state are identical to Take's: under StrictTake, the
// strict-vs-skip-ahead equivalence tests pin that the jump in advanceTo
// never changes what a core observes.
func (s *SlotAlloc) takeStrict(earliest int64, op isa.Op) int64 {
	c := s.cycle
	if c < 0 {
		c = 0
	}
	if earliest > c {
		c = earliest
	}
	for !s.TryTake(c, op) {
		c++
	}
	return c
}

// Peek returns the cycle Take would allocate for op at earliest, without
// mutating allocator state. Cores use it to decide whether an instruction
// would issue before a deadline (e.g. an advance-mode miss return).
func (s *SlotAlloc) Peek(earliest int64, op isa.Op) int64 {
	if earliest > s.cycle {
		return earliest // fresh cycle: all ports free
	}
	if s.fits(op) {
		return s.cycle
	}
	return s.cycle + 1
}

// TryTake allocates a slot only if one is free exactly at cycle; it
// reports success. Cores use it when interleaving two streams (rally and
// tail) in the same cycle. It spells out fits and use so that it stays
// small enough to inline into their per-cycle loops.
func (s *SlotAlloc) TryTake(cycle int64, op isa.Op) bool {
	s.advanceTo(cycle)
	c := portClass(op)
	if s.cycle != cycle || s.total >= s.width || s.used[c] >= s.limit[c] {
		return false
	}
	s.total++
	s.used[c]++
	return true
}

func (s *SlotAlloc) fits(op isa.Op) bool {
	c := portClass(op)
	return s.total < s.width && s.used[c] < s.limit[c]
}

func (s *SlotAlloc) use(op isa.Op) {
	s.total++
	s.used[portClass(op)]++
}
