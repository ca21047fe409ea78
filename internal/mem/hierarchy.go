// Package mem models the simulated memory hierarchy: split L1 I/D caches
// with victim buffers, a unified L2, stream-buffer prefetchers, miss status
// holding registers (MSHRs), and a bandwidth-limited memory bus.
//
// The model is completion-time based rather than event-driven: an access at
// cycle C immediately returns the cycle at which its data is available,
// computed against per-resource busy-until clocks. Tag state is updated
// eagerly; a table of in-flight line fills makes later accesses to a pending
// line wait for the original fill (MSHR merging). This keeps the hierarchy
// simple while modelling the contention that bounds the paper's achievable
// MLP (one 128-byte line per 32 bus cycles against a 400-cycle latency
// gives the ~12 practical L2 MLP limit the paper cites in §5.1).
package mem

import (
	"slices"

	"icfp/internal/cache"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hierarchy levels, ordered by distance from the pipeline.
const (
	LevelL1 Level = iota
	LevelL2
	LevelStream // stream-buffer prefetcher hit
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelStream:
		return "stream"
	case LevelMem:
		return "mem"
	}
	return "?"
}

// Config describes the hierarchy. DefaultConfig matches Table 1.
type Config struct {
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config

	L2HitLat int // cycles from L1 miss to data with an L2 hit

	MemLat        int // cycles to the first chunk from memory
	MemChunkLat   int // cycles per additional chunk
	MemChunkBytes int // chunk size in bytes
	NumMSHRs      int // outstanding memory misses

	StreamBufs      int // number of stream buffers (0 disables prefetch)
	StreamBufBlocks int // L2-line-sized blocks per stream buffer
}

// DefaultConfig returns the Table 1 hierarchy: 32 KB 4-way 64 B L1s with
// 8-entry victim buffers, 1 MB 8-way 128 B L2 with a 4-entry victim buffer
// and 20-cycle hit latency, 400-cycle memory with 4-cycle 16 B chunks, 64
// MSHRs, and 8 stream buffers of 8 blocks each.
func DefaultConfig() Config {
	return Config{
		L1I:             cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, VictimEntries: 8},
		L1D:             cache.Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, VictimEntries: 8},
		L2:              cache.Config{SizeBytes: 1 << 20, Assoc: 8, LineBytes: 128, VictimEntries: 4},
		L2HitLat:        20,
		MemLat:          400,
		MemChunkLat:     4,
		MemChunkBytes:   16,
		NumMSHRs:        64,
		StreamBufs:      8,
		StreamBufBlocks: 8,
	}
}

// busCycles returns the bus occupancy of one full L2 line transfer.
func (c Config) busCycles() int64 {
	chunks := c.L2.LineBytes / c.MemChunkBytes
	return int64(chunks) * int64(c.MemChunkLat)
}

// Result reports the outcome of an access.
type Result struct {
	Done  int64 // cycle at which the data is available to the pipeline
	Level Level // level that supplied the data
}

// Stats counts hierarchy events.
type Stats struct {
	DemandDataAccesses uint64
	DataL1Misses       uint64 // demand accesses that missed in L1D
	DataL2Misses       uint64 // demand accesses that missed in L2 (incl. stream hits)
	StreamHits         uint64
	InstL1Misses       uint64
	InstL2Misses       uint64
	Prefetches         uint64
	Writebacks         uint64
	MSHRMergeHits      uint64
	MSHRStallCycles    uint64
}

// streamBlock is one prefetched block held by a stream buffer.
type streamBlock struct {
	line  uint64
	ready int64 // completion cycle of the prefetch
}

// streamBuf holds its prefetched blocks in a fixed FIFO ring (backing
// allocated once in New, StreamBufBlocks entries), so steady-state
// consume/refill churn never allocates.
type streamBuf struct {
	nextLine uint64 // next L2 line address the buffer expects to supply
	blocks   []streamBlock
	head     int // index of the oldest block
	n        int // live blocks
	lastUse  int64
	valid    bool
}

// at returns the i-th oldest block.
func (sb *streamBuf) at(i int) *streamBlock {
	idx := sb.head + i
	if idx >= len(sb.blocks) {
		idx -= len(sb.blocks)
	}
	return &sb.blocks[idx]
}

// Hierarchy is the simulated memory system. Create with New.
type Hierarchy struct {
	cfg    Config
	ICache *cache.Cache
	DCache *cache.Cache
	L2     *cache.Cache

	busFree int64     // cycle at which the memory bus frees
	pending fillTable // in-flight L2-line fills: line -> completion
	mshrs   []int64   // completion cycles of active MSHRs
	streams []streamBuf
	// missedLines filters stream allocation: a stream is allocated only
	// when line X misses and line X-1 missed recently (two consecutive
	// misses indicate a stream; lone random or pointer-chase misses must
	// not burn bus bandwidth on useless prefetches).
	missedLines map[uint64]struct{}
	clock       int64

	// MissObserver, if non-nil, is called for every demand access that
	// misses the L1 data cache with the interval during which the miss is
	// outstanding and whether it also missed in the L2. Timing models use
	// it to feed MLP trackers.
	MissObserver func(start, done int64, l2Miss bool)

	Stats Stats
}

// New builds a hierarchy from cfg, validating all cache geometries.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{
		ICache: cache.New(cfg.L1I),
		DCache: cache.New(cfg.L1D),
		L2:     cache.New(cfg.L2),
	}
	h.reset(cfg)
	return h
}

// reset sets everything but the caches to what New(cfg) builds — idle
// bus and MSHR clocks, no fills in flight, empty stream buffers and miss
// filter, zero statistics, no MissObserver — reusing h's buffers where
// their sizes allow.
func (h *Hierarchy) reset(cfg Config) {
	if h.ICache.Config() != cfg.L1I || h.DCache.Config() != cfg.L1D || h.L2.Config() != cfg.L2 {
		panic("mem: hierarchy caches do not match the configuration")
	}
	h.cfg = cfg
	h.busFree, h.clock = 0, 0
	h.pending.reset()
	if h.missedLines == nil {
		h.missedLines = make(map[uint64]struct{})
	} else {
		clear(h.missedLines)
	}
	h.mshrs = h.mshrs[:0]
	switch {
	case cfg.StreamBufs == 0:
		h.streams = nil
	case len(h.streams) == cfg.StreamBufs && len(h.streams[0].blocks) == cfg.StreamBufBlocks:
		for i := range h.streams {
			clear(h.streams[i].blocks)
			h.streams[i] = streamBuf{blocks: h.streams[i].blocks}
		}
	default:
		h.streams = make([]streamBuf, cfg.StreamBufs)
		blocks := make([]streamBlock, cfg.StreamBufs*cfg.StreamBufBlocks)
		for i := range h.streams {
			h.streams[i].blocks = blocks[i*cfg.StreamBufBlocks : (i+1)*cfg.StreamBufBlocks : (i+1)*cfg.StreamBufBlocks]
		}
	}
	h.MissObserver = nil
	h.Stats = Stats{}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// l2Line aligns addr to an L2 line.
func (h *Hierarchy) l2Line(addr uint64) uint64 {
	return addr &^ uint64(h.cfg.L2.LineBytes-1)
}

// pendingDone returns the completion cycle of an in-flight fill covering
// addr, or 0 if none. A stale entry is deleted when probed (fillTable).
func (h *Hierarchy) pendingDone(cycle int64, addr uint64) int64 {
	return h.pending.probe(h.l2Line(addr), cycle)
}

// allocMSHR reserves a miss slot, returning the earliest cycle the miss can
// begin (stalls if all MSHRs are busy) and registers its completion.
func (h *Hierarchy) allocMSHR(cycle, done int64) int64 {
	// Drop completed entries.
	live := h.mshrs[:0]
	for _, c := range h.mshrs {
		if c > cycle {
			live = append(live, c)
		}
	}
	h.mshrs = live
	start := cycle
	if len(h.mshrs) >= h.cfg.NumMSHRs {
		slices.Sort(h.mshrs)
		idx := len(h.mshrs) - h.cfg.NumMSHRs
		if h.mshrs[idx] > start {
			h.Stats.MSHRStallCycles += uint64(h.mshrs[idx] - start)
			start = h.mshrs[idx]
		}
	}
	h.mshrs = append(h.mshrs, done)
	return start
}

// fetchFromMemory schedules a line transfer on the memory bus starting no
// earlier than cycle and returns the cycle the critical chunk arrives.
func (h *Hierarchy) fetchFromMemory(cycle int64) int64 {
	start := cycle
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + h.cfg.busCycles()
	return start + int64(h.cfg.MemLat)
}

// writeback charges bus occupancy for a dirty line leaving the L2.
func (h *Hierarchy) writeback() {
	h.Stats.Writebacks++
	h.busFree += h.cfg.busCycles()
}

// streamProbe checks the stream buffers for an L2-line address. On a hit
// the block is consumed, the stream advances (issuing a new prefetch), and
// the block's ready cycle is returned.
func (h *Hierarchy) streamProbe(cycle int64, line uint64) (int64, bool) {
	for i := range h.streams {
		sb := &h.streams[i]
		if !sb.valid {
			continue
		}
		for j := 0; j < sb.n; j++ {
			b := sb.at(j)
			if b.line != line {
				continue
			}
			ready := b.ready
			// Consume this block and everything older.
			sb.head += j + 1
			if sb.head >= len(sb.blocks) {
				sb.head -= len(sb.blocks)
			}
			sb.n -= j + 1
			sb.lastUse = cycle
			h.refillStream(cycle, sb)
			return ready, true
		}
	}
	return 0, false
}

// refillStream tops a stream buffer up to its block budget.
func (h *Hierarchy) refillStream(cycle int64, sb *streamBuf) {
	for sb.n < h.cfg.StreamBufBlocks {
		line := sb.nextLine
		sb.nextLine += uint64(h.cfg.L2.LineBytes)
		if h.L2.Probe(line) {
			continue // already cached; skip ahead
		}
		done := h.fetchFromMemory(cycle)
		h.Stats.Prefetches++
		*sb.at(sb.n) = streamBlock{line: line, ready: done}
		sb.n++
	}
}

// allocStream starts a new stream after a miss at line (prefetching the
// successor lines), replacing the least recently used buffer. Allocation
// is filtered: it requires a recent miss to the preceding line, so that
// isolated random or pointer-chase misses do not waste bus bandwidth.
func (h *Hierarchy) allocStream(cycle int64, line uint64) {
	if len(h.streams) == 0 {
		return
	}
	prev := line - uint64(h.cfg.L2.LineBytes)
	if _, ok := h.missedLines[prev]; !ok {
		if len(h.missedLines) > 4096 {
			clear(h.missedLines)
		}
		h.missedLines[line] = struct{}{}
		return
	}
	delete(h.missedLines, prev)
	vi := 0
	for i := range h.streams {
		if !h.streams[i].valid {
			vi = i
			break
		}
		if h.streams[i].lastUse < h.streams[vi].lastUse {
			vi = i
		}
	}
	sb := &h.streams[vi]
	sb.nextLine = line + uint64(h.cfg.L2.LineBytes)
	sb.head, sb.n = 0, 0
	sb.lastUse = cycle
	sb.valid = true
	h.refillStream(cycle, sb)
}

// l2Access services an L1 miss: L2 lookup, then stream buffers, then
// memory. It installs the line in the L2 and returns data-ready cycle and
// supplying level.
func (h *Hierarchy) l2Access(cycle int64, addr uint64, write bool) (int64, Level) {
	if h.L2.Lookup(addr, write) {
		done := cycle + int64(h.cfg.L2HitLat)
		if p := h.pendingDone(cycle, addr); p > done {
			// The tag is present but the line is still streaming in from
			// memory: this is an MSHR merge with the original fill.
			h.Stats.MSHRMergeHits++
			return p, LevelMem
		}
		return done, LevelL2
	}
	line := h.l2Line(addr)
	// Merge with an in-flight fill of the same line.
	if p := h.pendingDone(cycle, addr); p > 0 {
		h.Stats.MSHRMergeHits++
		h.insertL2(addr, write)
		return p, LevelMem
	}
	if ready, ok := h.streamProbe(cycle, line); ok {
		h.Stats.StreamHits++
		done := cycle + int64(h.cfg.L2HitLat)
		if ready > done {
			done = ready
		}
		h.insertL2(addr, write)
		if ready > cycle {
			h.pending.put(line, done)
		}
		return done, LevelStream
	}
	// Full miss to memory.
	done := h.fetchFromMemory(cycle)
	start := h.allocMSHR(cycle, done)
	if start > cycle { // MSHR stall pushed the request back
		done = h.fetchFromMemory(start)
	}
	h.pending.put(line, done)
	h.insertL2(addr, write)
	h.allocStream(cycle, line)
	return done, LevelMem
}

func (h *Hierarchy) insertL2(addr uint64, write bool) {
	if _, dirty := h.L2.Insert(addr, write); dirty {
		h.writeback()
	}
}

// Data performs a demand data access. The returned Done is the cycle the
// value is available; the 3-cycle D$ pipeline occupancy is charged by the
// pipeline model, not here.
func (h *Hierarchy) Data(cycle int64, addr uint64, write bool) Result {
	h.Stats.DemandDataAccesses++
	if h.DCache.Lookup(addr, write) {
		done := cycle
		if p := h.pendingDone(cycle, addr); p > done {
			done = p
		}
		return Result{Done: done, Level: LevelL1}
	}
	h.Stats.DataL1Misses++
	done, lvl := h.l2Access(cycle, addr, write)
	if lvl == LevelMem {
		// Stream-buffer hits are prefetched lines; only accesses that
		// truly wait on memory count as demand L2 misses.
		h.Stats.DataL2Misses++
	}
	h.DCache.Insert(addr, write)
	if h.MissObserver != nil {
		h.MissObserver(cycle, done, lvl == LevelMem)
	}
	return Result{Done: done, Level: lvl}
}

// Prefetch issues a non-binding fill of addr without counting it as a
// demand access. Advance-mode execution under a poisoned branch that later
// proves wrong still warms the caches through this path.
func (h *Hierarchy) Prefetch(cycle int64, addr uint64) Result {
	if h.DCache.Lookup(addr, false) {
		return Result{Done: cycle, Level: LevelL1}
	}
	done, lvl := h.l2Access(cycle, addr, false)
	h.DCache.Insert(addr, false)
	return Result{Done: done, Level: lvl}
}

// ProbeData reports the level that would service addr, without changing
// any state. Policy code (e.g. Runahead's advance-trigger selection) uses
// it to classify a miss before committing to a mode transition.
func (h *Hierarchy) ProbeData(addr uint64) Level {
	if h.DCache.Probe(addr) {
		return LevelL1
	}
	if h.L2.Probe(addr) {
		return LevelL2
	}
	return LevelMem
}

// Inst performs an instruction fetch access for the line containing addr.
func (h *Hierarchy) Inst(cycle int64, addr uint64) Result {
	if h.ICache.Lookup(addr, false) {
		done := cycle
		if p := h.pendingDone(cycle, addr); p > done {
			done = p
		}
		return Result{Done: done, Level: LevelL1}
	}
	h.Stats.InstL1Misses++
	done, lvl := h.l2Access(cycle, addr, false)
	if lvl != LevelL2 {
		h.Stats.InstL2Misses++
	}
	h.ICache.Insert(addr, false)
	return Result{Done: done, Level: lvl}
}
