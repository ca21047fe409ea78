package isa

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Trace is a resolved dynamic instruction stream. Index i is the i'th
// dynamic instruction; timing models address the stream by index so that
// checkpoint/restore and slice re-execution can re-fetch precisely.
//
// A trace is stored packed rather than as one Inst per instruction. A
// program runs few static instructions many times over, so the fields a
// static instruction fixes live once, in a table, and each dynamic
// instruction keeps only what varies:
//
//   - static: each distinct (PC, Op, Dst, Src1, Src2, Size) tuple, once
//     (16 bytes).
//   - dyn: per instruction, its static index with four flag bits folded
//     in (4 bytes): Taken, carries an Addr, and where its Target comes
//     from.
//   - val: per instruction, Val (8 bytes).
//   - addrs: the Addr of every instruction that carries one (each load
//     and store, and any other with a nonzero Addr), in trace order, in
//     chunks of addrChunk so appending never copies.
//   - blocks: per 64 instructions, a bitmask of those that carry an Addr
//     and the ordinal of the first, so Decode finds an Addr in O(1).
//
// Target is not stored. A taken control transfer's target is the PC of
// the instruction that follows it, and any other instruction's is 0.
// The instructions that break that rule (a generated trace's last,
// whose loop-back keeps its target though it falls through, or a trace
// file's) are listed in targets, so packing is lossless.
//
// A Trace is read-only once built (Builder builds one), and safe for
// concurrent readers.
type Trace struct {
	// Name labels the workload that produced the trace.
	Name string

	static  []Static
	dyn     []uint32
	val     []uint64
	blocks  []addrBlock
	addrs   [][]uint64
	targets []targetException
}

// Static is the part of an instruction its PC fixes in a trace's static
// table (16 bytes).
type Static struct {
	PC   uint64
	Op   Op
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Size uint8
}

// StaticKey packs a Static's fields other than the PC into the key
// Builder.AppendStatic takes.
func StaticKey(op Op, dst, src1, src2 Reg, size uint8) uint64 {
	return uint64(op) | uint64(dst)<<8 | uint64(src1)<<16 | uint64(src2)<<24 | uint64(size)<<32
}

// key packs s's fields other than the PC.
func (s *Static) key() uint64 { return StaticKey(s.Op, s.Dst, s.Src1, s.Src2, s.Size) }

// addrBlock locates the Addrs of 64 consecutive instructions: bit k of
// mask is set when instruction 64*blk+k carries one, and base is the
// addrs ordinal of the block's first.
type addrBlock struct {
	mask uint64
	base uint32
}

// targetException is an instruction whose Target the rule does not give.
type targetException struct {
	idx    int
	target uint64
}

// dyn word layout: the static index below four flags.
const (
	takenBit  = 1 << 31
	nextBit   = 1 << 30 // Target is the next instruction's PC
	listedBit = 1 << 29 // Target is listed in targets
	addrBit   = 1 << 28 // carries an Addr
	indexMask = addrBit - 1

	// addrChunk is the length of each addrs chunk (64 KiB).
	addrChunkShift = 13
	addrChunk      = 1 << addrChunkShift
)

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.dyn) }

// At returns the instruction at index i.
func (t *Trace) At(i int) Inst {
	var in Inst
	t.Decode(i, &in)
	return in
}

// Decode writes the instruction at index i to *in. It is At for hot
// loops: the caller's Inst is filled in place, where returning the
// 40-byte value would copy it after the piecewise writes that build it.
func (t *Trace) Decode(i int, in *Inst) {
	d := t.dyn[i]
	s := &t.static[d&indexMask]
	in.PC, in.Val = s.PC, t.val[i]
	in.Op, in.Dst, in.Src1, in.Src2, in.Size = s.Op, s.Dst, s.Src1, s.Src2, s.Size
	in.Addr, in.Target, in.Taken = 0, 0, d&takenBit != 0
	if d&addrBit != 0 {
		// The Addrs at or below i's bit, less i's own.
		b := &t.blocks[i>>6]
		o := int(b.base) + bits.OnesCount64(b.mask<<(63-uint(i&63))) - 1
		in.Addr = t.addrs[o>>addrChunkShift][o&(addrChunk-1)]
	}
	switch {
	case d&nextBit != 0:
		in.Target = t.static[t.dyn[i+1]&indexMask].PC
	case d&listedBit != 0:
		in.Target = t.listed(i)
	}
}

// listed returns instruction i's Target from the exception list.
func (t *Trace) listed(i int) uint64 {
	k, _ := slices.BinarySearchFunc(t.targets, i, func(e targetException, i int) int { return cmp.Compare(e.idx, i) })
	return t.targets[k].target
}

// Cap returns how many instructions the trace has room for without
// regrowing its per-instruction arrays.
func (t *Trace) Cap() int { return cap(t.dyn) }

// Bytes returns the bytes the trace's arrays hold, capacity included.
func (t *Trace) Bytes() int {
	n := cap(t.static)*int(unsafe.Sizeof(Static{})) +
		cap(t.dyn)*4 + cap(t.val)*8 +
		cap(t.blocks)*int(unsafe.Sizeof(addrBlock{})) +
		cap(t.addrs)*int(unsafe.Sizeof([]uint64(nil))) +
		cap(t.targets)*int(unsafe.Sizeof(targetException{}))
	for _, c := range t.addrs {
		n += cap(c) * 8
	}
	return n
}

// Checksum returns a content hash over every field of every instruction.
// Identical traces hash identically; tests use it to pin that timing
// models never mutate a shared trace.
func (t *Trace) Checksum() uint64 {
	h := fnv.New64a()
	var buf [40]byte
	var in Inst
	for i := range t.Len() {
		t.Decode(i, &in)
		binary.LittleEndian.PutUint64(buf[0:], in.PC)
		buf[8] = uint8(in.Op)
		buf[9] = uint8(in.Dst)
		buf[10] = uint8(in.Src1)
		buf[11] = uint8(in.Src2)
		buf[12] = in.Size
		if in.Taken {
			buf[13] = 1
		} else {
			buf[13] = 0
		}
		binary.LittleEndian.PutUint64(buf[16:], in.Addr)
		binary.LittleEndian.PutUint64(buf[24:], in.Val)
		binary.LittleEndian.PutUint64(buf[32:], in.Target)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// NewTrace packs insts into a trace named name.
func NewTrace(name string, insts []Inst) *Trace {
	b := NewBuilder(name, len(insts))
	for i := range insts {
		b.Append(&insts[i])
	}
	return b.Trace()
}

// Builder packs instructions into a Trace as they are appended, with no
// unpacked copy of the trace ever held. It fills its arrays by index,
// with counters for their used lengths, so appending writes no slice
// headers.
type Builder struct {
	t      Trace // dyn, val and blocks at full length; n and naddr used
	n      int   // instructions appended
	naddr  int   // Addrs appended
	addrOK int   // Addrs the chunks have room for
	// spareAddrs are the Addr chunks of the trace built over: chunk k
	// of the new trace reuses spareAddrs[k] when it has room.
	spareAddrs [][]uint64
	// lookup is an open-addressed index of static, at most a quarter
	// full: each slot holds 1+index, or 0 when empty.
	lookup []int32
	prev   uint32 // the last instruction's static index
	// The last instruction's Target and whether it is a taken control
	// transfer: its Target is checked against the rule once its
	// successor's PC is known.
	target    uint64
	takenCtrl bool
}

// NewBuilder returns a builder for a trace named name with room for n
// instructions: up to n, appending never regrows an array.
func NewBuilder(name string, n int) *Builder {
	b := new(Builder)
	b.Reset(nil, name, n)
	return b
}

// Reset readies b to build a new trace named name with room for n
// instructions, as NewBuilder would, whether or not b has built one
// before. With a non-nil spare, a trace nobody reads any more, which
// Reset takes, the new trace goes into spare's arrays where they have
// room, and only what they lack is allocated; b's static index is
// reused too. A program reuses the memory of traces it is done with
// this way, instead of first touching fresh memory for the next. The
// trace built is the one NewBuilder(name, n) builds, its Cap included.
func (b *Builder) Reset(spare *Trace, name string, n int) {
	n = max(n, 1)
	var old Trace
	if spare != nil {
		old, *spare = *spare, Trace{}
	}
	lookup := b.lookup
	if lookup == nil {
		lookup = make([]int32, 256)
	} else {
		clear(lookup)
	}
	nb := (n + 63) / 64
	*b = Builder{
		t: Trace{
			Name:    name,
			static:  old.static[:0],
			dyn:     room(old.dyn, n),
			val:     room(old.val, n),
			blocks:  room(old.blocks, nb),
			targets: old.targets[:0],
		},
		spareAddrs: old.addrs,
		lookup:     lookup,
	}
	if cap(old.blocks) >= nb {
		clear(b.t.blocks) // masks are ORed in
	}
}

// room returns s's array at length and capacity n when it has room for
// n, and a new array otherwise.
func room[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n:n]
	}
	return make([]E, n)
}

// Len returns the number of instructions appended so far.
func (b *Builder) Len() int { return b.n }

// Append adds *in as the trace's next instruction.
func (b *Builder) Append(in *Inst) {
	b.AppendStatic(in.PC, StaticKey(in.Op, in.Dst, in.Src1, in.Src2, in.Size), in.Addr, in.Val, in.Taken, in.Target)
}

// AppendStatic adds the instruction with PC pc, static key key
// (StaticKey) and the given dynamic fields as the trace's next. It is
// Append for a producer that has the fields in hand: they arrive in
// registers, where Append reads back an Inst the producer has just
// written to memory. The static part comes packed because as a Static it
// would not fit the argument registers: it would be spilled to the stack
// field by field and read back as one word by the key, a store-forwarding
// stall on every instruction.
func (b *Builder) AppendStatic(pc, key, addr, val uint64, taken bool, target uint64) {
	op := Op(key)
	i := b.n
	if i == len(b.t.dyn) {
		b.grow()
	}
	if i > 0 {
		b.settle(pc, true)
	}
	d := b.index(pc, key)
	if taken {
		d |= takenBit
	}
	o := b.naddr
	if i&63 == 0 {
		b.t.blocks[i>>6].base = uint32(o)
	}
	if op.IsMem() || addr != 0 {
		d |= addrBit
		b.t.blocks[i>>6].mask |= 1 << (i & 63)
		if o == b.addrOK {
			b.addrRoom()
		}
		b.t.addrs[o>>addrChunkShift][o&(addrChunk-1)] = addr
		b.naddr = o + 1
	}
	b.t.dyn[i] = d
	b.t.val[i] = val
	b.n = i + 1
	b.target, b.takenCtrl = target, taken && op.IsCtrl()
}

// grow doubles the per-instruction arrays: the builder was sized short.
func (b *Builder) grow() {
	if b.n == math.MaxUint32 {
		panic("isa: trace of 2^32 instructions") // addrBlock.base would wrap
	}
	n := 2 * len(b.t.dyn)
	b.t.dyn = regrow(b.t.dyn, n)
	b.t.val = regrow(b.t.val, n)
	b.t.blocks = regrow(b.t.blocks, (n+63)/64)
}

// regrow returns a copy of s at length n.
func regrow[E any](s []E, n int) []E {
	t := make([]E, n)
	copy(t, s)
	return t
}

// addrRoom adds room for the next Addrs: a chunk the size of the
// builder's instruction room, up to addrChunk, then whole chunks.
func (b *Builder) addrRoom() {
	switch c := len(b.t.addrs); {
	case c == 0:
		b.t.addrs = append(b.t.addrs, b.chunk(min(len(b.t.dyn), addrChunk)))
	case len(b.t.addrs[c-1]) < addrChunk:
		// The first chunk, sized short: widen it. Its Addrs are kept;
		// the rest of a spare chunk is written before it is read.
		if first := b.t.addrs[0]; cap(first) >= addrChunk {
			b.t.addrs[0] = first[:addrChunk]
		} else {
			b.t.addrs[0] = regrow(first, addrChunk)
		}
	default:
		b.t.addrs = append(b.t.addrs, b.chunk(addrChunk))
	}
	last := b.t.addrs[len(b.t.addrs)-1]
	b.addrOK = (len(b.t.addrs)-1)*addrChunk + len(last)
}

// chunk returns n words of room for the next Addr chunk: the spare
// trace's chunk in the same place when it has room, else a new one.
func (b *Builder) chunk(n int) []uint64 {
	if k := len(b.t.addrs); k < len(b.spareAddrs) && cap(b.spareAddrs[k]) >= n {
		return b.spareAddrs[k][:n]
	}
	return make([]uint64, n)
}

// settle records where the last instruction's Target comes from, next
// being its successor's PC if hasNext.
func (b *Builder) settle(next uint64, hasNext bool) {
	i := b.n - 1
	switch {
	case hasNext && b.takenCtrl && b.target == next:
		b.t.dyn[i] |= nextBit
	case b.target != 0 || hasNext && b.takenCtrl:
		b.t.dyn[i] |= listedBit
		b.t.targets = append(b.t.targets, targetException{i, b.target})
	}
}

// index returns the static index of the Static with the given PC and
// key, adding it if it is new. A program mostly repeats its paths, so the
// static added after the last instruction's is checked before the
// lookup is probed.
func (b *Builder) index(pc, key uint64) uint32 {
	if k := b.prev + 1; int(k) < len(b.t.static) && b.t.static[k].PC == pc && b.t.static[k].key() == key {
		b.prev = k
		return k
	}
	b.prev = b.lookupIndex(pc, key)
	return b.prev
}

// lookupIndex is index's probe of lookup.
func (b *Builder) lookupIndex(pc, key uint64) uint32 {
	mask := len(b.lookup) - 1
	for j := hashStatic(pc, key, len(b.lookup)); ; j = (j + 1) & mask {
		e := b.lookup[j]
		if e == 0 {
			k := len(b.t.static)
			if k > indexMask {
				panic(fmt.Sprintf("isa: trace of over %d distinct static instructions", indexMask+1))
			}
			b.t.static = append(b.t.static, Static{pc, Op(key), Reg(key >> 8), Reg(key >> 16), Reg(key >> 24), uint8(key >> 32)})
			b.lookup[j] = int32(k + 1)
			if 4*len(b.t.static) > len(b.lookup) {
				b.rehash()
			}
			return uint32(k)
		}
		if s := &b.t.static[e-1]; s.PC == pc && s.key() == key {
			return uint32(e - 1)
		}
	}
}

// rehash doubles the static index.
func (b *Builder) rehash() {
	b.lookup = make([]int32, 2*len(b.lookup))
	mask := len(b.lookup) - 1
	for k := range b.t.static {
		s := &b.t.static[k]
		j := hashStatic(s.PC, s.key(), len(b.lookup))
		for b.lookup[j] != 0 {
			j = (j + 1) & mask
		}
		b.lookup[j] = int32(k + 1)
	}
}

// hashStatic returns a static tuple's home slot in an index of n slots,
// n a power of two.
func hashStatic(pc, key uint64, n int) int {
	h := (pc*0x9E3779B97F4A7C15 ^ key) * 0xBF58476D1CE4E5B9
	return int(h >> (64 - bits.TrailingZeros(uint(n))))
}

// Trace finishes the trace and returns it; the builder must not be used
// again until Reset.
func (b *Builder) Trace() *Trace {
	if b.n > 0 {
		b.settle(0, false)
	}
	t := new(Trace)
	*t = b.t
	t.dyn, t.val = t.dyn[:b.n], t.val[:b.n]
	t.blocks = t.blocks[:(b.n+63)/64]
	b.t, b.spareAddrs = Trace{}, nil
	return t
}
