// Package workload generates the deterministic, fully resolved instruction
// traces the simulator runs. It replaces the paper's SPEC2000/Alpha
// binaries (which we cannot run) with synthetic programs whose memory and
// control behaviour is calibrated per benchmark to the characterization in
// Table 2 of the paper: data-cache and L2 misses per kilo-instruction, and
// the *kind* of misses — independent random misses (art-like), streaming
// prefetch-friendly misses (swim-like), and dependent pointer-chase miss
// chains (mcf-like), which are what differentiate iCFP from Runahead,
// Multipass and SLTP.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"icfp/internal/isa"
	"icfp/internal/mem"
)

// Workload couples a resolved trace with an optional cache pre-warm hook
// (used by the Figure 1 micro-scenarios to set up exact hit/miss
// patterns). Every load carries the value it reads in its Inst.Val, so a
// workload needs no memory image.
type Workload struct {
	Name    string
	Trace   *isa.Trace
	Prewarm func(h *mem.Hierarchy) // optional; called before simulation

	sharedMu sync.Mutex
	shared   map[string]any
	spares   *Spares // the pool generation drew on; nil for none
}

// SharedState returns the per-workload shared value for key, calling
// build exactly once per key to create it. The harness shares workloads
// read-only across all simulations (exp.Arena), so this is where state
// that is a pure function of the workload — warmed cache/predictor
// checkpoints, most importantly — attaches and amortizes across every
// machine that runs the workload. build runs under the workload's shared
// lock: it must create the (empty) container only, deferring real work
// to the container's own methods.
func (w *Workload) SharedState(key string, build func() any) any {
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	if w.shared == nil {
		w.shared = make(map[string]any)
	}
	v, ok := w.shared[key]
	if !ok {
		v = build()
		w.shared[key] = v
	}
	return v
}

// Spare takes a buffer that a released workload's shared state under
// key gave up (Recycler) from the pool the workload was generated over,
// for the shared state under key to build over instead of allocating. It
// returns nil when the pool has none, and always for a workload
// generated outside a pool (Spares.Generate).
func (w *Workload) Spare(key string) any { return w.spares.take(key) }

// Address-space layout for generated programs. Regions are spaced far
// apart so they never alias.
const (
	codeBase   = 0x0040_0000 // instruction PCs
	hotBase    = 0x1000_0000 // small always-cached data region
	streamBase = 0x2000_0000 // sequentially-walked region
	randBase   = 0x4000_0000 // large random-access region
	chaseBase  = 0x8000_0000 // far linked-list region
	chase2Base = 0xA000_0000 // near (L2-resident) linked-list region
)

// hotBytes is the size of the hot region; it fits comfortably in the
// 32 KB L1 so hot loads essentially always hit.
const hotBytes = 8 << 10

// writtenBits sizes the builder's filter of stored addresses (128 KiB).
const writtenBits = 1 << 20

// Profile parameterizes a synthetic benchmark. All fractions are of
// dynamic instructions unless stated otherwise.
type Profile struct {
	Name string
	FP   bool // SPECfp-style (fp compute, fewer branches)

	// Instruction mix.
	LoadFrac   float64 // fraction of instructions that are loads
	StoreFrac  float64 // fraction that are stores
	BranchFrac float64 // fraction that are conditional branches

	// Load population. Fractions are of loads and must sum to <= 1;
	// the remainder are hot loads that hit the L1.
	StreamFrac float64 // sequential loads (prefetch-friendly)
	RandFrac   float64 // uniform-random loads over RandBytes
	ChaseFrac  float64 // pointer-chase loads (each depends on the last)

	StreamStride uint64 // bytes between consecutive stream loads
	RandBytes    uint64 // random-region footprint
	ChaseBytes   uint64 // far linked-list footprint (>> L2: every hop misses to memory)

	// Near chase ring: sized to stay L2-resident but exceed the L1, so
	// its hops are dependent data-cache misses that hit in the L2 — the
	// "secondary data cache miss under an L2 miss" pattern of Figure 6.
	Chase2Frac  float64
	Chase2Bytes uint64

	// Control behaviour.
	BranchNoise  float64 // fraction of branches with random outcome
	BranchOnLoad float64 // fraction of branches keyed on a load result

	// Store behaviour.
	StoreToLoadFwd float64 // fraction of stores reloaded shortly after
	PoisonAddrFrac float64 // fraction of stores whose address comes from a load

	// Compute structure.
	ILP     int     // independent dependence chains in compute blocks
	MulFrac float64 // fraction of compute ops that are multiplies
	// ConsumeLag inserts this many independent compute instructions
	// between a load group and its consumers. It models how far real code
	// separates loads from uses: with a large lag, a stall-on-use
	// in-order pipeline hides L2-hit latencies by itself (eon/gcc-like);
	// with none, every miss stalls the pipe at once (art/mcf-like).
	ConsumeLag int
}

// builder incrementally constructs a resolved trace. It keeps no memory
// image beyond the small hot region: a load's value is the last word
// stored at its address (hot, else stored), else the address's initial
// contents, which are a function of the address — a chase ring's next
// pointer, or zero (see word).
type builder struct {
	rng    *rand.Rand
	tr     *isa.Builder
	n      int // the trace's nominal length
	vals   [isa.NumRegs]uint64
	hot    [hotBytes / 8]uint64 // the hot region's words, as last stored or filled
	stored map[uint64]uint64    // every other word a store has written, by address
	// written has bit (addr/8)%writtenBits set for every address in
	// stored, so most loads of words never stored skip the map.
	written *[writtenBits / 64]uint64
	kinds   []int // an iteration's main-block load kinds

	streamPtr uint64
	far       chaseRing // far ring (memory misses)
	near      chaseRing // near ring (L2-resident D$ misses)
}

// nodeSize is a chase-ring node: one per L1 line, its first word the
// pointer to the next node and its second the payload.
const nodeSize = 64

// chaseRing is a pseudo-random ring of linked-list nodes laid over the
// lines from base, and a walk around it. The ring is never written to
// memory: node order[i]'s pointer word holds the address of node
// order[i+1], so a load of node o's pointer word reads
// order[pos[o]+1].
type chaseRing struct {
	base  uint64
	order []int32 // node at each ring position; order[n] repeats order[0]
	pos   []int32 // ring position of each node
	idx   int     // the walk's position
}

// nodes returns the ring's node count (0 for no ring).
func (c *chaseRing) nodes() int { return len(c.pos) }

// at returns the address of the node at ring position i.
func (c *chaseRing) at(i int) uint64 { return c.base + uint64(c.order[i])*nodeSize }

// next returns the walk's current node address and advances the walk.
func (c *chaseRing) next() uint64 {
	addr := c.at(c.idx)
	if c.idx++; c.idx == len(c.pos) {
		c.idx = 0
	}
	return addr
}

// pointer returns the initial contents of the word at addr when it is
// a node's pointer word.
func (c *chaseRing) pointer(addr uint64) (uint64, bool) {
	off := addr - c.base
	if addr < c.base || off >= uint64(len(c.pos))*nodeSize || off%nodeSize != 0 {
		return 0, false
	}
	return c.at(int(c.pos[off/nodeSize]) + 1), true
}

// Register conventions inside generated programs.
var (
	regStream  = isa.IntReg(1) // stream pointer
	regIndex   = isa.IntReg(2) // random index scratch
	regChase   = isa.IntReg(3) // far chase pointer
	regChase2  = isa.IntReg(4) // near chase pointer
	regPayload = isa.IntReg(5) // chase-node payload
	regPayAcc  = isa.IntReg(6) // payload accumulator
	regZero    = isa.IntReg(0)
)

// dataRegs rotate as destinations of loads and compute.
func dataReg(i int, fp bool) isa.Reg {
	if fp {
		return isa.FPReg(8 + i%16)
	}
	return isa.IntReg(8 + i%16)
}

// reset readies b, a new builder or one that has generated before, to
// generate an n-instruction trace named name from seed, built over spare
// when it is not nil (isa.Builder.Reset). Generation only reads what
// it wrote, or reset did, so a reused builder generates the trace a new
// one does.
func (b *builder) reset(name string, seed int64, n int, spare *isa.Trace) {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(seed))
		b.stored = make(map[uint64]uint64)
		b.written = new([writtenBits / 64]uint64)
		b.tr = new(isa.Builder)
	} else {
		b.rng.Seed(seed)
		clear(b.stored)
		clear(b.written[:])
	}
	b.n = n
	b.vals = [isa.NumRegs]uint64{}
	for k := range b.hot {
		b.hot[k] = uint64(8*k) ^ 0xABCD // the hot region's fill
	}
	// One allocation per trace array: generation appends at most one
	// iteration past n (bounded by genSlack), and growing a
	// multi-hundred-kilo-instruction array by doubling would copy it
	// several times over.
	b.tr.Reset(spare, name, n+genSlack)
}

// emit appends an instruction.
func (b *builder) emit(pc uint64, op isa.Op, dst, s1, s2 isa.Reg, size uint8, addr, val uint64, taken bool, target uint64) {
	b.tr.AppendStatic(pc, isa.StaticKey(op, dst, s1, s2, size), addr, val, taken, target)
}

// emitALU appends a 1-cycle integer op dst = f(src1, src2).
func (b *builder) emitALU(pc uint64, dst, s1, s2 isa.Reg) {
	v := b.vals[s1&63] + 1
	if s2.Valid() {
		v += b.vals[s2&63]
	}
	if dst.Valid() {
		b.vals[dst] = v
	}
	b.emit(pc, isa.OpALU, dst, s1, s2, 0, 0, v, false, 0)
}

// emitOp appends a compute op of the given class.
func (b *builder) emitOp(pc uint64, op isa.Op, dst, s1, s2 isa.Reg) {
	v := b.vals[s1&63] ^ 0x9E3779B97F4A7C15
	if s2.Valid() {
		v += b.vals[s2&63]
	}
	if dst.Valid() {
		b.vals[dst] = v
	}
	b.emit(pc, op, dst, s1, s2, 0, 0, v, false, 0)
}

// emitLoad appends a load dst = mem[addr] whose address was produced by
// addrReg (the dependence the timing model honors).
func (b *builder) emitLoad(pc uint64, dst, addrReg isa.Reg, addr uint64) {
	v := b.word(addr)
	if dst.Valid() {
		b.vals[dst] = v
	}
	b.emit(pc, isa.OpLoad, dst, addrReg, 0, 8, addr, v, false, 0)
}

// emitStore appends a store mem[addr] = dataReg.
func (b *builder) emitStore(pc uint64, addrReg, data isa.Reg, addr uint64) {
	v := b.vals[data&63]
	mustAlign(addr)
	if off := addr - hotBase; off < hotBytes {
		b.hot[off/8] = v
	} else {
		w := addr / 8 % writtenBits
		b.written[w/64] |= 1 << (w % 64)
		b.stored[addr] = v
	}
	b.emit(pc, isa.OpStore, 0, addrReg, data, 8, addr, v, false, 0)
}

// word returns the memory word at addr as the program so far has left
// it. Regions are laid out in the order far ring, near ring, hot fill,
// so where they could overlap the later one wins.
func (b *builder) word(addr uint64) uint64 {
	mustAlign(addr)
	if off := addr - hotBase; off < hotBytes {
		return b.hot[off/8]
	}
	if w := addr / 8 % writtenBits; b.written[w/64]>>(w%64)&1 != 0 {
		if v, ok := b.stored[addr]; ok {
			return v
		}
	}
	if v, ok := b.near.pointer(addr); ok {
		return v
	}
	if v, ok := b.far.pointer(addr); ok {
		return v
	}
	return 0
}

// mustAlign panics on an access that is not 8-byte aligned. Every region
// base, node, stride and index the generator uses is a multiple of 8, so
// an access never straddles two words and a word map models memory
// exactly.
func mustAlign(addr uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("workload: unaligned generator access at %#x", addr))
	}
}

// emitBranch appends a conditional branch. A taken one's target must be
// the PC of the instruction emitted next.
func (b *builder) emitBranch(pc uint64, s1, s2 isa.Reg, taken bool, target uint64) {
	b.emit(pc, isa.OpBranch, 0, s1, s2, 0, 0, 0, taken, target)
}

// buildChase lays a pseudo-random ring of linked-list nodes over bytes of
// memory starting at base and points reg at the ring's first node. The
// node order is rand.Perm's, from the same draws, so the rng stream is
// exactly what Perm leaves behind. The ring reuses old's arrays where
// they have room: every entry is written before it is read.
func (b *builder) buildChase(base, bytes uint64, reg isa.Reg, old chaseRing) chaseRing {
	if bytes == 0 {
		return chaseRing{order: old.order[:0], pos: old.pos[:0]}
	}
	n := bytes / nodeSize
	if n < 2 {
		n = 2
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("workload: chase ring of %d bytes is over %d nodes", bytes, math.MaxInt32))
	}
	order := resize(old.order, int(n)+1)
	pos := resize(old.pos, int(n))
	for i := range int(n) {
		j := b.rng.Intn(i + 1)
		if j != i {
			order[i] = order[j]
			pos[order[i]] = int32(i)
		}
		order[j] = int32(i)
		pos[i] = int32(j)
	}
	order[n] = order[0]
	c := chaseRing{base: base, order: order, pos: pos}
	b.vals[reg] = c.at(0)
	return c
}

// MaxInsts bounds generated workload lengths at roughly the paper's full
// scale. It is the documented contract of Generate — and the bound
// internal/spec enforces on specs arriving over the network, so a remote
// worker cannot be pinned for hours on a single absurd key.
const MaxInsts = 1 << 30

// genSlack bounds how far one generator iteration can run past n: the
// nominal loop body is ~64 instructions, and the widest profile mix
// (every chase load expanding to three instructions, forwarded reloads
// doubling stores) stays well under this. The builder preallocates
// n+genSlack up front so the whole trace is one allocation;
// TestGenerateSingleAllocation pins that the backing never regrows.
const genSlack = 512

// Generate builds a deterministic workload of roughly n dynamic
// instructions for the profile; n must be in 1..MaxInsts. The same
// (profile, seed, n) triple always yields an identical trace.
func Generate(p Profile, n int, seed int64) *Workload { return generate(p, n, seed, nil) }

// generate is Generate over the pool s (Spares.Generate); a nil s
// allocates everything afresh.
func generate(p Profile, n int, seed int64, s *Spares) *Workload {
	if n < 1 || n > MaxInsts {
		panic(fmt.Sprintf("workload: Generate n=%d out of range 1..%d", n, MaxInsts))
	}
	b := s.builder()
	b.reset(p.Name, seed, n, s.trace(n+genSlack))
	defer s.putBuilder(b)
	b.streamPtr = streamBase
	b.far = b.buildChase(chaseBase, p.ChaseBytes, regChase, b.far)
	b.near = b.buildChase(chase2Base, p.Chase2Bytes, regChase2, b.near)

	// The program is one big loop; every iteration walks the same static
	// block sequence (stable PCs train the predictor and I$), with block
	// contents drawn from the profile's mix.
	for b.tr.Len() < n {
		b.iteration(p)
	}
	return &Workload{
		Name:    p.Name,
		Trace:   b.tr.Trace(),
		Prewarm: prewarmL2(p),
		spares:  s,
	}
}

// resize returns s at length n, reusing its array when it has room.
// Entries it keeps are stale: the caller writes each before reading it.
func resize[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}

// prewarmL2 returns a hook that installs the steady-state-resident data
// regions into the L2: the whole random region (its resident tail if it
// exceeds capacity) and the near chase ring. Sampled runs are far shorter
// than real executions, so without this the first touch of every cold
// line would masquerade as a memory miss.
func prewarmL2(p Profile) func(h *mem.Hierarchy) {
	return func(h *mem.Hierarchy) {
		line := uint64(h.L2.LineBytes())
		for a := uint64(0); a < p.RandBytes; a += line {
			h.L2.Insert(randBase+a, false)
		}
		for a := uint64(0); a < p.Chase2Bytes; a += line {
			h.L2.Insert(chase2Base+a, false)
		}
	}
}

// iteration emits one loop body. Static layout (fixed PCs per block slot):
// [chase] [rand] [stream] [compute] [stores] [branches] [loop branch].
func (b *builder) iteration(p Profile) {
	pc := uint64(codeBase)
	next := func() uint64 { pc += 4; return pc - 4 }
	di := b.rng.Intn(16) // rotating data register base

	// Derive per-iteration op counts from the profile fractions, assuming
	// a nominal body of ~64 instructions. Fractional counts round
	// probabilistically so small fractions are honored in expectation.
	const body = 64.0
	round := func(x float64) int {
		n := int(x)
		if b.rng.Float64() < x-float64(n) {
			n++
		}
		return n
	}
	loads := round(body * p.LoadFrac)
	stores := round(body * p.StoreFrac)
	branches := round(body * p.BranchFrac)
	chase := round(float64(loads) * p.ChaseFrac)
	chase2 := round(float64(loads) * p.Chase2Frac)
	randLoads := round(float64(loads) * p.RandFrac)
	stream := round(float64(loads) * p.StreamFrac)
	// Profiles reach this generator from user-authored suites (the fuzz
	// family decodes via spec), so degenerate shapes must fall back, not
	// panic: a load class without a backing region becomes hot loads,
	// and probabilistic rounding that oversubscribes the load budget
	// clamps the hot remainder at zero.
	if b.far.nodes() == 0 {
		chase = 0
	}
	if b.near.nodes() == 0 {
		chase2 = 0
	}
	if p.RandBytes < 8 {
		randLoads = 0
	}
	hot := loads - chase - chase2 - randLoads - stream
	if hot < 0 {
		hot = 0
	}
	compute := 64 - loads - stores - branches
	if compute < 0 {
		compute = 0
	}

	// Far chase block: dependent memory misses. Each hop reads the node's
	// payload (same line as the pointer) and consumes it immediately, as
	// real list-walking code does — this is what makes a stall-on-use
	// in-order pipeline serialize on every hop.
	for c := 0; c < chase; c++ {
		addr := b.far.next()
		b.emitLoad(next(), regPayload, regChase, addr+8)
		b.emitLoad(next(), regChase, regChase, addr)
		b.emitALU(next(), regPayAcc, regPayAcc, regPayload)
	}

	// Near chase block: dependent D$ misses that hit in the L2.
	for c := 0; c < chase2; c++ {
		addr := b.near.next()
		b.emitLoad(next(), regPayload, regChase2, addr+8)
		b.emitLoad(next(), regChase2, regChase2, addr)
		b.emitALU(next(), regPayAcc, regPayAcc, regPayload)
	}

	// Main block: groups of up to ILP independent loads, each group
	// followed immediately by instructions that consume every loaded
	// value. Tight consumption is what makes a stall-on-use in-order
	// pipeline suffer under misses: its achievable MLP is bounded by the
	// group size, while advance-mode machines run ahead across groups
	// and iterations.
	ilp := p.ILP
	if ilp < 1 {
		ilp = 1
	}
	kinds := b.kinds[:0]
	for r := 0; r < randLoads; r++ {
		kinds = append(kinds, 0)
	}
	for s := 0; s < stream; s++ {
		kinds = append(kinds, 1)
	}
	for h := 0; h < hot; h++ {
		kinds = append(kinds, 2)
	}
	b.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	b.kinds = kinds

	computeLeft := compute
	for g := 0; g < len(kinds); g += ilp {
		end := g + ilp
		if end > len(kinds) {
			end = len(kinds)
		}
		group := kinds[g:end]
		// Issue the group's loads back to back (independent of each other).
		for k, kind := range group {
			dst := dataReg(di+k, p.FP)
			switch kind {
			case 0: // random
				addr := randBase + uint64(b.rng.Int63n(int64(p.RandBytes/8)))*8
				b.emitLoad(next(), dst, regIndex, addr)
			case 1: // stream
				b.emitLoad(next(), dst, regStream, b.streamPtr)
				b.streamPtr += p.StreamStride
			default: // hot
				addr := hotBase + uint64(b.rng.Int63n(hotBytes/8))*8
				b.emitLoad(next(), dst, regZero, addr)
			}
		}
		// Optional slack between the loads and their uses.
		for l := 0; l < p.ConsumeLag && computeLeft > 0; l++ {
			op := isa.OpALU
			if p.FP {
				op = isa.OpFAdd
			}
			acc := dataReg(di+8+l%ilp, p.FP)
			b.emitOp(next(), op, acc, acc, isa.RegNone)
			computeLeft--
		}
		// Consume every loaded value into per-chain accumulators.
		for k := range group {
			op := isa.OpALU
			if p.FP {
				op = isa.OpFAdd
			}
			acc := dataReg(di+8+k%ilp, p.FP)
			b.emitOp(next(), op, acc, acc, dataReg(di+k, p.FP))
			computeLeft--
		}
		// Advance the stream/index pointers for the next group.
		b.emitALU(next(), regIndex, regIndex, isa.RegNone)
		computeLeft--
	}

	// Remaining compute: ILP independent chains over the accumulators.
	for k := 0; k < computeLeft; k++ {
		op := isa.OpALU
		if p.FP {
			op = isa.OpFAdd
		}
		if b.rng.Float64() < p.MulFrac {
			if p.FP {
				op = isa.OpFMul
			} else {
				op = isa.OpIMul
			}
		}
		chain := k % ilp
		dst := dataReg(di+8+chain, p.FP)
		b.emitOp(next(), op, dst, dst, dataReg(di+chain, p.FP))
	}

	// Store block.
	for s := 0; s < stores; s++ {
		data := dataReg(di+s, p.FP)
		var addr uint64
		addrReg := regIndex
		switch {
		case b.rng.Float64() < p.PoisonAddrFrac && b.far.nodes() > 0:
			// Address derived from a chase load: poisoned-address store
			// when the chase is miss-dependent.
			addr = b.vals[regChase] + 8
			addrReg = regChase
		case b.rng.Float64() < p.RandFrac && p.RandBytes >= 8:
			// Stores follow the same cold/hot split as loads so store
			// misses track the profile's miss-rate targets. (The random
			// draw happens unconditionally, so the degenerate-region
			// guard never shifts the rng stream of a valid profile.)
			addr = randBase + uint64(b.rng.Int63n(int64(p.RandBytes/8)))*8
		default:
			addr = hotBase + uint64(b.rng.Int63n(hotBytes/8))*8
		}
		b.emitStore(next(), addrReg, data, addr)
		// A fixed prefix of stores is reloaded shortly after, exercising
		// store-to-load forwarding. The count is deterministic so that
		// every iteration has an identical static PC layout.
		if s < int(float64(stores)*p.StoreToLoadFwd) {
			b.emitLoad(next(), dataReg(di+s+1, p.FP), addrReg, addr)
		}
	}

	// Data-dependent branches. A taken one's target is the instruction
	// that follows it: the next branch or the loop-back.
	for k := 0; k < branches; k++ {
		src := dataReg(di+k, p.FP)
		if b.rng.Float64() < p.BranchOnLoad {
			// Branch keyed on recently loaded data: on chase workloads the
			// node payload (so branches become miss-dependent, as real
			// list-walking code is), otherwise the latest group load.
			if p.ChaseFrac > 0 || p.Chase2Frac > 0 {
				src = regPayAcc
			} else {
				src = dataReg(di, p.FP)
			}
		}
		taken := true
		if b.rng.Float64() < p.BranchNoise {
			taken = b.rng.Intn(2) == 0
		}
		pc := next()
		var target uint64
		if taken {
			target = pc + 4
		}
		b.emitBranch(pc, src, regZero, taken, target)
	}

	// Loop-back branch (predictably taken). The last iteration's falls
	// through, to terminate cleanly, and keeps its target.
	lb := next()
	b.emitBranch(lb, regIndex, regZero, b.tr.Len()+1 < b.n, codeBase)
}
