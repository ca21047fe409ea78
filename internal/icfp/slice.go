package icfp

import "math/bits"

// The slice buffer (§3.1, §3.4): a FIFO of miss-dependent instructions
// and their miss-independent side inputs. Entries stay in place across
// rally passes; executing un-poisons an entry in place, and re-poisoned
// entries are simply re-activated, which keeps the buffer in program
// order under multithreaded advance/rally (no dequeue-and-requeue).
// Successive passes make the buffer sparse; space reclaims from the head.

// srcKind describes where a slice instruction's input comes from.
type srcKind uint8

const (
	srcNone     srcKind = iota // no such operand
	srcCaptured                // miss-independent side input, captured on entry
	srcSlice                   // produced by an older slice entry
)

// sliceSrc is one input of a slice entry.
type sliceSrc struct {
	kind srcKind
	prod uint64 // producing entry id (kind == srcSlice)
}

// sliceEntry is one miss-dependent instruction awaiting rally, as
// assembled by the caller at append time. The buffer does not store it
// as-is: the fields split into hot scan state and cold payload (see
// sliceBuffer).
type sliceEntry struct {
	idx    int    // trace index
	seq    uint64 // distance from the checkpoint (last-writer gating)
	ssn    uint64 // store-buffer tail at dispatch (forwarding window)
	poison uint8  // union of poison bits the entry currently waits on
	srcs   [2]sliceSrc

	// Stores: SSN of the store-buffer entry whose value this instruction
	// fills when it executes.
	storeSSN uint64

	// Poisoned branches: whether the advance-mode prediction matched the
	// resolved direction. false forces a squash when the entry rallies.
	predOK bool
}

// sliceMeta is the cold payload of a buffered entry: everything the
// rally touches only when the entry actually executes.
type sliceMeta struct {
	idx      int
	seq      uint64
	ssn      uint64
	srcs     [2]sliceSrc
	storeSSN uint64
	predOK   bool
	done     int64 // completion cycle once executed
}

// sliceBuffer holds entries in program order, indexed by id. The backing
// storage is a set of fixed parallel rings of cap slots allocated once at
// construction: occupied slots are ids head..head+n-1 at ring positions
// start..start+n-1 (mod cap), so steady-state append/reclaim churn never
// allocates or copies entries.
//
// The layout is struct-of-arrays, split by access pattern: the rally
// cursor probes many entries per cycle but executes at most one, so the
// two fields every probe reads (active, poison — two bytes) live in
// dense byte arrays while the rest of the entry sits in a parallel cold
// array. A cursor sweep over a sparse buffer then touches ~32 entries
// per cache line instead of one.
type sliceBuffer struct {
	cap    int
	active []bool      // hot ring: entry awaiting execution
	poison []uint8     // hot ring: current poison vector
	meta   []sliceMeta // cold ring: payload read only on execution
	start  int         // ring index of the entry with id head
	n      int         // occupied slots
	head   uint64      // id of the oldest occupied slot
	live   int         // active entries

	// waiting[b] counts active entries whose poison vector includes bit b,
	// maintained incrementally so the per-cycle "any active entry waiting
	// on a returned bit?" check is O(1), not a buffer walk. actMask caches
	// the union of bits with a nonzero count. All poison updates of
	// buffered entries must go through SetPoison to keep both exact.
	waiting [8]int
	actMask uint8
}

func newSliceBuffer(capacity int) *sliceBuffer {
	return &sliceBuffer{
		cap:    capacity,
		active: make([]bool, capacity),
		poison: make([]uint8, capacity),
		meta:   make([]sliceMeta, capacity),
	}
}

// pos returns the ring position of the i-th oldest occupied slot.
func (s *sliceBuffer) pos(i int) int {
	idx := s.start + i
	if idx >= s.cap {
		idx -= s.cap
	}
	return idx
}

// countPoison adjusts the waiting counts for an active entry's poison
// vector by delta (+1 on activation, -1 on deactivation or change).
func (s *sliceBuffer) countPoison(p uint8, delta int) {
	for ; p != 0; p &= p - 1 {
		b := bits.TrailingZeros8(p)
		s.waiting[b] += delta
		if s.waiting[b] > 0 {
			s.actMask |= 1 << b
		} else {
			s.actMask &^= 1 << b
		}
	}
}

// Full reports whether appending would exceed capacity. Capacity counts
// occupied slots (active or not) because un-poisoned entries are not
// compacted, only reclaimed from the head (§3.4).
func (s *sliceBuffer) Full() bool { return s.n >= s.cap }

// Empty reports whether no active entries remain.
func (s *sliceBuffer) Empty() bool { return s.live == 0 }

// Len returns the number of occupied slots.
func (s *sliceBuffer) Len() int { return s.n }

// End returns one past the youngest occupied id (== head when empty).
func (s *sliceBuffer) End() uint64 { return s.head + uint64(s.n) }

// Append adds an active entry and returns its id. ok is false when full.
func (s *sliceBuffer) Append(e *sliceEntry) (uint64, bool) {
	if s.Full() {
		return 0, false
	}
	id := s.head + uint64(s.n)
	p := s.pos(s.n)
	s.active[p] = true
	s.poison[p] = e.poison
	s.meta[p] = sliceMeta{
		idx: e.idx, seq: e.seq, ssn: e.ssn,
		srcs: e.srcs, storeSSN: e.storeSSN, predOK: e.predOK,
	}
	s.n++
	s.live++
	s.countPoison(e.poison, +1)
	return id, true
}

// State returns the hot scan state of the entry with the given id:
// whether it is still buffered, and if so whether it is active and what
// poison it waits on. This is the rally cursor's probe — it touches only
// the hot rings.
func (s *sliceBuffer) State(id uint64) (active bool, poison uint8, present bool) {
	if id < s.head || id >= s.head+uint64(s.n) {
		return false, 0, false
	}
	p := s.pos(int(id - s.head))
	return s.active[p], s.poison[p], true
}

// Meta returns the cold payload of a buffered entry, or nil if the id
// has been reclaimed. The pointer is valid until the entry is reclaimed.
func (s *sliceBuffer) Meta(id uint64) *sliceMeta {
	if id < s.head || id >= s.head+uint64(s.n) {
		return nil
	}
	return &s.meta[s.pos(int(id-s.head))]
}

// ActivePoison returns the union of poison vectors over active entries.
func (s *sliceBuffer) ActivePoison() uint8 { return s.actMask }

// SetPoison changes a buffered entry's poison vector, keeping the
// waiting counts exact.
func (s *sliceBuffer) SetPoison(id uint64, p uint8) {
	if id < s.head || id >= s.head+uint64(s.n) {
		return
	}
	rp := s.pos(int(id - s.head))
	if s.active[rp] {
		s.countPoison(s.poison[rp], -1)
		s.countPoison(p, +1)
	}
	s.poison[rp] = p
}

// Deactivate marks an entry executed and reclaims inactive space from the
// head.
func (s *sliceBuffer) Deactivate(id uint64, done int64) {
	if id < s.head || id >= s.head+uint64(s.n) {
		return
	}
	p := s.pos(int(id - s.head))
	if !s.active[p] {
		return
	}
	s.countPoison(s.poison[p], -1)
	s.active[p] = false
	s.meta[p].done = done
	s.live--
	s.reclaim()
}

// reclaim frees inactive entries at the head. Their ids remain resolvable
// as "executed" via Executed.
func (s *sliceBuffer) reclaim() {
	for s.n > 0 && !s.active[s.start] {
		s.start++
		if s.start == s.cap {
			s.start = 0
		}
		s.head++
		s.n--
	}
}

// Clear empties the buffer (squash to checkpoint).
func (s *sliceBuffer) Clear() {
	s.head += uint64(s.n)
	s.n = 0
	s.live = 0
	s.waiting = [8]int{}
	s.actMask = 0
}

// Executed reports whether the entry id has executed (inactive or already
// reclaimed) and, if resolvable, its completion cycle.
func (s *sliceBuffer) Executed(id uint64) (int64, bool) {
	if id < s.head {
		return 0, true // reclaimed: long done
	}
	if id >= s.head+uint64(s.n) {
		return 0, false
	}
	p := s.pos(int(id - s.head))
	if s.active[p] {
		return 0, false
	}
	return s.meta[p].done, true
}
