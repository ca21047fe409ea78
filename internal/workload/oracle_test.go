package workload

// The oracle: the generator as it was when it laid every chase ring
// and the hot region out in a paged byte-addressable memory image and
// read each load's value back from that image. Generate must produce
// exactly this generator's traces; TestGenerateMatchesOracle and
// FuzzGenerateMatchesOracle compare them field by field. Keep this file
// as it is: a deliberate change to the generated traces changes
// Generate and this oracle together, and the goldens with them.

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"icfp/internal/isa"
)

const (
	oraclePageShift = 12
	oraclePageSize  = 1 << oraclePageShift
	oraclePageMask  = oraclePageSize - 1
)

// oracleImage is a sparse byte-addressable memory; unwritten bytes read
// as zero.
type oracleImage struct {
	pages map[uint64]*[oraclePageSize]byte
}

func (m *oracleImage) page(addr uint64, create bool) *[oraclePageSize]byte {
	pn := addr >> oraclePageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new([oraclePageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// Read64 reads a little-endian 64-bit word; it may straddle pages.
func (m *oracleImage) Read64(addr uint64) uint64 {
	if off := addr & oraclePageMask; off <= oraclePageSize-8 {
		if p := m.page(addr, false); p != nil {
			return binary.LittleEndian.Uint64(p[off : off+8])
		}
		return 0
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		if p := m.page(addr+i, false); p != nil {
			v |= uint64(p[(addr+i)&oraclePageMask]) << (8 * i)
		}
	}
	return v
}

// Write64 writes a little-endian 64-bit word; it may straddle pages.
func (m *oracleImage) Write64(addr, v uint64) {
	if off := addr & oraclePageMask; off <= oraclePageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:off+8], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.page(addr+i, true)[(addr+i)&oraclePageMask] = byte(v >> (8 * i))
	}
}

// oracleBuilder incrementally constructs a resolved trace.
type oracleBuilder struct {
	rng  *rand.Rand
	img  *oracleImage
	tr   []isa.Inst
	vals [isa.NumRegs]uint64

	streamPtr uint64
	far       oracleWalk // far ring (memory misses)
	near      oracleWalk // near ring (L2-resident D$ misses)
}

// oracleWalk tracks a pointer walk over a prebuilt ring of nodes.
type oracleWalk struct {
	ptr  uint64
	ring []uint64
	idx  int
}

// next returns the current node address and advances the walk.
func (c *oracleWalk) next() uint64 {
	addr := c.ptr
	c.idx = (c.idx + 1) % len(c.ring)
	c.ptr = c.ring[c.idx]
	return addr
}

func newOracleBuilder(seed int64, n int) *oracleBuilder {
	return &oracleBuilder{
		rng: rand.New(rand.NewSource(seed)),
		img: &oracleImage{pages: map[uint64]*[oraclePageSize]byte{}},
		// One allocation for the whole trace: generation appends at most
		// one iteration past n (bounded by genSlack), and growing a
		// multi-hundred-kilo-instruction slice by doubling would copy the
		// whole trace several times over.
		tr: make([]isa.Inst, 0, n+genSlack),
	}
}

// emit appends an instruction. A taken control transfer's target is the
// instruction that dynamically follows it, so the previous instruction's
// target is set here, as its successor arrives.
func (b *oracleBuilder) emit(in isa.Inst) {
	if n := len(b.tr); n > 0 {
		if prev := &b.tr[n-1]; prev.Taken && prev.Op.IsCtrl() {
			prev.Target = in.PC
		}
	}
	b.tr = append(b.tr, in)
}

// emitALU appends a 1-cycle integer op dst = f(src1, src2).
func (b *oracleBuilder) emitALU(pc uint64, dst, s1, s2 isa.Reg) {
	v := b.vals[s1&63] + 1
	if s2.Valid() {
		v += b.vals[s2&63]
	}
	if dst.Valid() {
		b.vals[dst] = v
	}
	b.emit(isa.Inst{PC: pc, Op: isa.OpALU, Dst: dst, Src1: s1, Src2: s2, Val: v})
}

// emitOp appends a compute op of the given class.
func (b *oracleBuilder) emitOp(pc uint64, op isa.Op, dst, s1, s2 isa.Reg) {
	v := b.vals[s1&63] ^ 0x9E3779B97F4A7C15
	if s2.Valid() {
		v += b.vals[s2&63]
	}
	if dst.Valid() {
		b.vals[dst] = v
	}
	b.emit(isa.Inst{PC: pc, Op: op, Dst: dst, Src1: s1, Src2: s2, Val: v})
}

// emitLoad appends a load dst = mem[addr] whose address was produced by
// addrReg (the dependence the timing model honors).
func (b *oracleBuilder) emitLoad(pc uint64, dst, addrReg isa.Reg, addr uint64) {
	v := b.img.Read64(addr)
	if dst.Valid() {
		b.vals[dst] = v
	}
	b.emit(isa.Inst{PC: pc, Op: isa.OpLoad, Dst: dst, Src1: addrReg, Addr: addr, Size: 8, Val: v})
}

// emitStore appends a store mem[addr] = dataReg.
func (b *oracleBuilder) emitStore(pc uint64, addrReg, data isa.Reg, addr uint64) {
	v := b.vals[data&63]
	b.img.Write64(addr, v)
	b.emit(isa.Inst{PC: pc, Op: isa.OpStore, Src1: addrReg, Src2: data, Addr: addr, Size: 8, Val: v})
}

// emitBranch appends a conditional branch.
func (b *oracleBuilder) emitBranch(pc uint64, s1, s2 isa.Reg, taken bool, target uint64) {
	b.emit(isa.Inst{PC: pc, Op: isa.OpBranch, Src1: s1, Src2: s2, Taken: taken, Target: target})
}

// buildChase lays a pseudo-random ring of linked-list nodes over bytes of
// memory starting at base and initializes the image so that each node's
// first word points at the next node.
func (b *oracleBuilder) buildChase(base, bytes uint64, reg isa.Reg) oracleWalk {
	if bytes == 0 {
		return oracleWalk{}
	}
	const nodeSize = 64 // one node per L1 line
	n := int(bytes / nodeSize)
	if n < 2 {
		n = 2
	}
	order := b.rng.Perm(n)
	addrs := make([]uint64, n)
	for i, o := range order {
		addrs[i] = base + uint64(o)*nodeSize
	}
	for i := range addrs {
		next := addrs[(i+1)%n]
		b.img.Write64(addrs[i], next)
	}
	b.vals[reg] = addrs[0]
	return oracleWalk{ptr: addrs[0], ring: addrs}
}

// oracleGenerate is Generate as it was, returning the trace alone.
func oracleGenerate(p Profile, n int, seed int64) []isa.Inst {
	if n < 1 || n > MaxInsts {
		panic(fmt.Sprintf("workload: Generate n=%d out of range 1..%d", n, MaxInsts))
	}
	b := newOracleBuilder(seed, n)
	b.streamPtr = streamBase
	b.far = b.buildChase(chaseBase, p.ChaseBytes, regChase)
	b.near = b.buildChase(chase2Base, p.Chase2Bytes, regChase2)
	// Hot region: fill with nonzero data.
	for a := uint64(0); a < hotBytes; a += 8 {
		b.img.Write64(hotBase+a, a^0xABCD)
	}

	// The program is one big loop; every iteration walks the same static
	// block sequence (stable PCs train the predictor and I$), with block
	// contents drawn from the profile's mix.
	for len(b.tr) < n {
		b.iteration(p)
	}
	// Terminate cleanly: final loop-back branch falls through.
	if last := &b.tr[len(b.tr)-1]; last.Op == isa.OpBranch {
		last.Taken = false
	}
	return b.tr
}

// iteration emits one loop body. Static layout (fixed PCs per block slot):
// [chase] [rand] [stream] [compute] [stores] [branches] [loop branch].
func (b *oracleBuilder) iteration(p Profile) {
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
	if len(b.far.ring) == 0 {
		chase = 0
	}
	if len(b.near.ring) == 0 {
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
	kinds := make([]int, 0, randLoads+stream+hot)
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
		case b.rng.Float64() < p.PoisonAddrFrac && len(b.far.ring) > 0:
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

	// Data-dependent branches. emit sets each taken one's target to the
	// dynamically following instruction.
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
		b.emitBranch(next(), src, regZero, taken, 0)
	}

	// Loop-back branch (predictably taken).
	lb := next()
	b.emitBranch(lb, regIndex, regZero, true, codeBase)
}
