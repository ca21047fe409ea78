package pipeline

import (
	"icfp/internal/isa"
	"icfp/internal/mem"
)

// AdvanceTrigger selects which load misses push a machine from normal
// execution into advance mode (Figures 5 and 6 sweep this):
type AdvanceTrigger int

// Trigger levels.
const (
	// TriggerL2Only advances only under misses that leave the L2
	// (Runahead's and SLTP's best configuration at a 20-cycle L2).
	TriggerL2Only AdvanceTrigger = iota
	// TriggerPrimaryD1 also advances under primary data-cache misses
	// (Multipass's configuration).
	TriggerPrimaryD1
	// TriggerAll advances under every miss, including secondary data
	// cache misses (iCFP's configuration).
	TriggerAll
)

// Fires reports whether a load miss serviced at level triggers advance
// mode: from normal mode it starts an episode, and while advancing
// (iCFP only) it is poisoned and sliced rather than waited out. Under
// TriggerPrimaryD1 only the first miss of an episode may be a data
// cache miss; later ones must leave the L2. An unknown trigger never
// fires.
func (t AdvanceTrigger) Fires(level mem.Level, advancing bool) bool {
	switch t {
	case TriggerL2Only:
		return level == mem.LevelMem
	case TriggerPrimaryD1:
		if advancing {
			return level == mem.LevelMem
		}
		return level != mem.LevelL1
	case TriggerAll:
		return level != mem.LevelL1
	}
	return false
}

// String names the trigger for experiment output.
func (t AdvanceTrigger) String() string {
	switch t {
	case TriggerL2Only:
		return "L2-only"
	case TriggerPrimaryD1:
		return "L2+primaryD$"
	case TriggerAll:
		return "all"
	}
	return "?"
}

// RunaheadCache is the small forwarding cache Runahead and Multipass use
// for advance-mode stores (256 entries in Table 1). It offers only
// best-effort forwarding: entries may be evicted (FIFO) and everything is
// discarded when advance mode ends.
//
// The backing storage is a fixed ring of capacity slots in FIFO
// (insertion) order plus an addr→slot index, all allocated at
// construction: the Put/Get/Clear cycle of an advance episode allocates
// nothing, no matter how many episodes a run enters.
//
// The index is an open-addressed linear-probe table rather than a Go
// map: Multipass enters thousands of short episodes per run, and a map
// pays a hashed lookup per advance load/store plus a full bucket sweep
// per episode exit. Here a lookup is a multiply and a short probe, and
// Clear is one epoch increment — slots are live only while their stamp
// matches the current epoch. Evicting a ring entry removes its key with
// standard backshift deletion, so probe chains stay exact and the table
// (sized 4× capacity, load factor ≤ ¼) never needs tombstones.
type RunaheadCache struct {
	cap    int
	addr   []uint64 // ring, FIFO order: slots start..start+n-1 mod cap
	val    []uint64
	poison []uint8
	start  int
	n      int

	// addr → ring slot index. A table slot i holds key[i] iff
	// epoch[i] == cur; Clear bumps cur to empty the table in O(1).
	key   []uint64
	slot  []int32
	epoch []uint32
	cur   uint32
	mask  uint64

	Evictions uint64
}

// NewRunaheadCache builds a runahead cache with the given entry count.
func NewRunaheadCache(capacity int) *RunaheadCache {
	size := 4
	for size < 4*capacity {
		size *= 2
	}
	return &RunaheadCache{
		cap:    capacity,
		addr:   make([]uint64, capacity),
		val:    make([]uint64, capacity),
		poison: make([]uint8, capacity),
		key:    make([]uint64, size),
		slot:   make([]int32, size),
		epoch:  make([]uint32, size),
		cur:    1,
		mask:   uint64(size - 1),
	}
}

// find probes for addr. It returns the table index holding it (ok) or
// the empty slot where it would be inserted (!ok).
func (r *RunaheadCache) find(addr uint64) (int, bool) {
	i := (addr * 0x9E3779B97F4A7C15) & r.mask
	for {
		if r.epoch[i] != r.cur {
			return int(i), false
		}
		if r.key[i] == addr {
			return int(i), true
		}
		i = (i + 1) & r.mask
	}
}

// remove deletes addr's table entry by backshift: later entries in the
// probe chain that hash at or before the vacated slot shift into it, so
// no tombstone is left behind.
func (r *RunaheadCache) remove(addr uint64) {
	i, ok := r.find(addr)
	if !ok {
		return
	}
	hole := uint64(i)
	j := hole
	for {
		j = (j + 1) & r.mask
		if r.epoch[j] != r.cur {
			break
		}
		h := (r.key[j] * 0x9E3779B97F4A7C15) & r.mask
		// Shift j into the hole unless j's home position lies in the
		// cyclic range (hole, j] — then the hole doesn't break j's chain.
		var shift bool
		if j > hole {
			shift = h <= hole || h > j
		} else {
			shift = h <= hole && h > j
		}
		if shift {
			r.key[hole], r.slot[hole] = r.key[j], r.slot[j]
			r.epoch[hole] = r.cur
			r.epoch[j] = 0
			hole = j
		}
	}
	r.epoch[hole] = 0
}

// Put records an advance store. A poisoned store records poison so that
// loads forwarding from it are poisoned too. Updating an existing address
// keeps its original FIFO position.
func (r *RunaheadCache) Put(addr, val uint64, poison uint8) {
	i, ok := r.find(addr)
	if ok {
		p := r.slot[i]
		r.val[p] = val
		r.poison[p] = poison
		return
	}
	if r.n >= r.cap {
		r.remove(r.addr[r.start])
		r.start++
		if r.start == r.cap {
			r.start = 0
		}
		r.n--
		r.Evictions++
		// The backshift may have moved addr's insertion point.
		i, _ = r.find(addr)
	}
	p := r.start + r.n
	if p >= r.cap {
		p -= r.cap
	}
	r.addr[p] = addr
	r.val[p] = val
	r.poison[p] = poison
	r.key[i] = addr
	r.slot[i] = int32(p)
	r.epoch[i] = r.cur
	r.n++
}

// Get returns the forwarded value and poison for addr, if present.
func (r *RunaheadCache) Get(addr uint64) (val uint64, poison uint8, ok bool) {
	i, ok := r.find(addr)
	if !ok {
		return 0, 0, false
	}
	p := r.slot[i]
	return r.val[p], r.poison[p], true
}

// Clear empties the cache (at advance-mode exit) without releasing any
// storage: bumping the epoch empties the index in O(1).
func (r *RunaheadCache) Clear() {
	r.cur++
	if r.cur == 0 { // epoch wrap: stale stamps could alias, reset them
		clear(r.epoch)
		r.cur = 1
	}
	r.start, r.n = 0, 0
}

// Len returns the number of live entries.
func (r *RunaheadCache) Len() int { return r.n }

// Checkpoint snapshots the scoreboard so that checkpoint-based machines
// (Runahead, Multipass, SLTP, iCFP on a squash) can restore register
// availability state.
type Checkpoint struct {
	Ready [isa.NumRegs]int64
	Seq   [isa.NumRegs]uint64
	Index int // trace index of the checkpointed (triggering) instruction
}

// TakeCheckpoint captures the scoreboard at trace index idx.
func TakeCheckpoint(b *Scoreboard, idx int) Checkpoint {
	return Checkpoint{Ready: b.Ready, Seq: b.Seq, Index: idx}
}

// Restore rewinds the scoreboard to the checkpoint, clearing poison. Any
// register whose value had not yet arrived by `at` keeps its original
// ready time; everything else is available at `at`.
func (c *Checkpoint) Restore(b *Scoreboard, at int64) {
	for i := range b.Ready {
		b.Ready[i] = c.Ready[i]
		if b.Ready[i] < at {
			b.Ready[i] = at
		}
		b.Seq[i] = c.Seq[i]
		b.Poison[i] = 0
	}
}
