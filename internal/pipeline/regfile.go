package pipeline

import (
	"encoding/binary"

	"icfp/internal/isa"
)

// Scoreboard tracks, for every architectural register: the cycle its
// latest value becomes available (for stall-on-use scheduling), its poison
// bitvector (advance-mode miss dependence tracking, §3.4), and its
// last-writer sequence number (distance from the checkpoint, used to gate
// rally-time updates against write-after-write hazards, §3.1).
type Scoreboard struct {
	Ready  [isa.NumRegs]int64
	Poison [isa.NumRegs]uint8
	Seq    [isa.NumRegs]uint64
}

// SrcReady returns the cycle by which all of in's sources are available.
func (s *Scoreboard) SrcReady(in *isa.Inst) int64 {
	var t int64
	if in.Src1.Valid() && s.Ready[in.Src1] > t {
		t = s.Ready[in.Src1]
	}
	if in.Src2.Valid() && s.Ready[in.Src2] > t {
		t = s.Ready[in.Src2]
	}
	return t
}

// SrcPoison returns the union of the sources' poison vectors.
func (s *Scoreboard) SrcPoison(in *isa.Inst) uint8 {
	var p uint8
	if in.Src1.Valid() {
		p |= s.Poison[in.Src1]
	}
	if in.Src2.Valid() {
		p |= s.Poison[in.Src2]
	}
	return p
}

// WriteDst records a completed write: value ready at done, poison vector
// p (0 un-poisons), and last-writer sequence number seq.
func (s *Scoreboard) WriteDst(in *isa.Inst, done int64, p uint8, seq uint64) {
	if !in.HasDst() {
		return
	}
	s.Ready[in.Dst] = done
	s.Poison[in.Dst] = p
	s.Seq[in.Dst] = seq
}

// ClearPoison erases all poison state (e.g. on checkpoint restore).
func (s *Scoreboard) ClearPoison() {
	for i := range s.Poison {
		s.Poison[i] = 0
	}
}

// AnyPoisoned reports whether any register is poisoned. It reads the
// poison vectors eight at a time.
func (s *Scoreboard) AnyPoisoned() bool {
	var acc uint64
	p := s.Poison[:]
	for ; len(p) >= 8; p = p[8:] {
		acc |= binary.LittleEndian.Uint64(p)
	}
	for _, v := range p {
		acc |= uint64(v)
	}
	return acc != 0
}
