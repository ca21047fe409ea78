// Package icfp implements the paper's contribution: the in-order
// Continual Flow Pipeline. The machine lives in icfp.go; this file
// implements the address-hash-chained store buffer of §3.2, built on the
// SSN (store sequence number) dynamic store naming scheme.
//
// Every store — committed or advance-mode, poisoned or not — is assigned
// the next SSN and occupies store-buffer slot SSN mod capacity. A small
// chain table maps an address hash to the SSN of the youngest store with
// that hash; each buffer entry links to the next-youngest same-hash store.
// Loads forward by walking the chain from the table head instead of an
// associative search; SSNs at or below SSNcomplete name stores already
// written to the cache and terminate the walk.
package icfp

import "icfp/internal/stats"

// SBMode selects the store-buffer design (Figure 8).
type SBMode int

// Store buffer designs compared in Figure 8.
const (
	// SBChained is iCFP's address-hash-chained indexed buffer.
	SBChained SBMode = iota
	// SBIdeal is an idealized fully-associative buffer (no hop cost,
	// no hash collisions).
	SBIdeal
	// SBLimited is an indexed buffer with limited forwarding: a load that
	// hits in the chain table but does not match the head store's address
	// must stall until that store drains (the in-order analogue of
	// out-of-order CFP's SRL/LCF scheme).
	SBLimited
)

// String names the mode.
func (m SBMode) String() string {
	switch m {
	case SBChained:
		return "chained"
	case SBIdeal:
		return "ideal-associative"
	case SBLimited:
		return "indexed-limited"
	}
	return "?"
}

// ChainedStoreBuffer implements the §3.2 store buffer. SSNs start at 1 so
// that 0 can serve as a null link.
//
// Entry storage is struct-of-arrays, split by access pattern: a
// forwarding lookup walks the hash chain reading only addr/ssn/link
// (the hot arrays), while val/poison/idx (the cold arrays) are touched
// only on an actual hit, drain, or squash. The hot walk therefore pulls
// three tightly packed arrays through the cache instead of one sparse
// 48-byte record per hop.
type ChainedStoreBuffer struct {
	mode SBMode
	// Hot per-slot arrays (chain walks): indexed by SSN mod capacity.
	addr []uint64
	ssn  []uint64
	link []uint64 // SSN of the next-youngest same-hash store (0 = none)
	// Cold per-slot arrays (hit/drain/squash only).
	val    []uint64
	poison []uint8
	idx    []int // trace index of the store (squash recovery)

	chain []uint64 // chain table: hash -> youngest SSN

	ssnTail     uint64 // SSN of the youngest inserted store
	ssnComplete uint64 // SSN of the youngest store written to the cache

	// hops is the histogram of excess chain hops per forwarded-or-missed
	// load (first access is free, §3.2), less the lookups that found no
	// live store: idle counts those zero-hop samples apart, so Forward's
	// empty check stays small enough to inline. HopHistogram folds them.
	hops     *stats.Histogram
	idle     uint64
	Forwards uint64
}

// NewChainedStoreBuffer builds a buffer with the given entry count, chain
// table size, and design mode.
func NewChainedStoreBuffer(entries, chainEntries int, mode SBMode) *ChainedStoreBuffer {
	return &ChainedStoreBuffer{
		mode:   mode,
		addr:   make([]uint64, entries),
		ssn:    make([]uint64, entries),
		link:   make([]uint64, entries),
		val:    make([]uint64, entries),
		poison: make([]uint8, entries),
		idx:    make([]int, entries),
		chain:  make([]uint64, chainEntries),
		hops:   stats.NewHistogram(32),
	}
}

func (b *ChainedStoreBuffer) hash(addr uint64) int {
	return int((addr >> 3) % uint64(len(b.chain)))
}

// slot maps an SSN to its ring position in the per-slot arrays.
func (b *ChainedStoreBuffer) slot(ssn uint64) int {
	return int(ssn % uint64(len(b.ssn)))
}

// Full reports whether no entry is free.
func (b *ChainedStoreBuffer) Full() bool {
	return b.ssnTail-b.ssnComplete >= uint64(len(b.ssn))
}

// Live returns the number of not-yet-drained stores.
func (b *ChainedStoreBuffer) Live() int { return int(b.ssnTail - b.ssnComplete) }

// Tail returns the SSN of the youngest store (0 if none yet). A load
// dispatched now forwards from stores with SSN <= Tail().
func (b *ChainedStoreBuffer) Tail() uint64 { return b.ssnTail }

// Insert appends a store, returning its SSN. ok is false when the buffer
// is full (the caller must transition to simple-runahead mode, §3.4).
// A store with unknown (poisoned) data carries its poison vector; its
// value is filled in by UpdateValue during a rally.
func (b *ChainedStoreBuffer) Insert(addr, val uint64, poison uint8, idx int) (ssn uint64, ok bool) {
	if b.Full() {
		return 0, false
	}
	b.ssnTail++
	ssn = b.ssnTail
	h := b.hash(addr)
	p := b.slot(ssn)
	b.addr[p] = addr
	b.ssn[p] = ssn
	b.link[p] = b.chain[h]
	b.val[p] = val
	b.poison[p] = poison
	b.idx[p] = idx
	b.chain[h] = ssn
	return ssn, true
}

// OldestPoisoned returns the oldest live store with unresolved (poisoned)
// data at or below limit, if any. Squash recovery must roll back at least
// this far: a poisoned store whose slice entry is discarded would
// otherwise never receive its value and would block drains forever.
func (b *ChainedStoreBuffer) OldestPoisoned(limit uint64) (ssn uint64, idx int, ok bool) {
	for s := b.ssnComplete + 1; s <= b.ssnTail && s <= limit; s++ {
		p := b.slot(s)
		if b.ssn[p] == s && b.poison[p] != 0 {
			return s, b.idx[p], true
		}
	}
	return 0, 0, false
}

// UpdateValue fills a previously poisoned store's value (rally execution
// of a miss-dependent store) and clears its poison, unblocking drains.
func (b *ChainedStoreBuffer) UpdateValue(ssn uint64, val uint64) {
	p := b.slot(ssn)
	if b.ssn[p] == ssn {
		b.val[p] = val
		b.poison[p] = 0
	}
}

// ForwardResult reports the outcome of a forwarding lookup.
type ForwardResult struct {
	Found  bool
	Val    uint64
	Poison uint8
	Hops   int // excess chain hops beyond the free first access
	// StallSSN is nonzero in SBLimited mode when the load must stall
	// until the store with this SSN drains.
	StallSSN uint64
}

// Forward looks up the youngest store to addr with SSN <= loadSSN.
// loadSSN is the buffer's Tail at the load's dispatch; rally loads pass
// their recorded dispatch-time value so younger stores are skipped.
func (b *ChainedStoreBuffer) Forward(loadSSN uint64, addr uint64) ForwardResult {
	if b.ssnComplete >= b.ssnTail {
		// No live store: every design's lookup ends at the cache, having
		// read nothing but the free first access.
		b.idle++
		return ForwardResult{}
	}
	return b.lookup(loadSSN, addr)
}

// lookup is Forward over a buffer holding at least one live store.
func (b *ChainedStoreBuffer) lookup(loadSSN uint64, addr uint64) ForwardResult {
	switch b.mode {
	case SBIdeal:
		return b.forwardIdeal(loadSSN, addr)
	case SBLimited:
		return b.forwardLimited(loadSSN, addr)
	}
	return b.forwardChained(loadSSN, addr)
}

func (b *ChainedStoreBuffer) forwardChained(loadSSN uint64, addr uint64) ForwardResult {
	ssn := b.chain[b.hash(addr)]
	visits := 0
	for ssn > b.ssnComplete {
		p := b.slot(ssn)
		if b.ssn[p] != ssn {
			break // overwritten slot: the chain is stale past here
		}
		visits++
		if b.addr[p] == addr && ssn <= loadSSN {
			b.Forwards++
			b.hops.Add(visits - 1)
			return ForwardResult{Found: true, Val: b.val[p], Poison: b.poison[p], Hops: visits - 1}
		}
		ssn = b.link[p]
	}
	if visits > 0 {
		b.hops.Add(visits - 1)
	} else {
		b.hops.Add(0)
	}
	return ForwardResult{Hops: max0(visits - 1)}
}

func (b *ChainedStoreBuffer) forwardIdeal(loadSSN uint64, addr uint64) ForwardResult {
	b.hops.Add(0)
	best := uint64(0)
	hit := -1
	for p := range b.ssn {
		if b.ssn[p] > b.ssnComplete && b.ssn[p] <= loadSSN && b.addr[p] == addr && b.ssn[p] > best {
			best = b.ssn[p]
			hit = p
		}
	}
	if hit < 0 {
		return ForwardResult{}
	}
	b.Forwards++
	return ForwardResult{Found: true, Val: b.val[hit], Poison: b.poison[hit]}
}

func (b *ChainedStoreBuffer) forwardLimited(loadSSN uint64, addr uint64) ForwardResult {
	ssn := b.chain[b.hash(addr)]
	b.hops.Add(0)
	if ssn <= b.ssnComplete {
		return ForwardResult{} // chain empty: value comes from the cache
	}
	p := b.slot(ssn)
	if b.ssn[p] != ssn {
		return ForwardResult{}
	}
	if b.addr[p] == addr && ssn <= loadSSN {
		b.Forwards++
		return ForwardResult{Found: true, Val: b.val[p], Poison: b.poison[p]}
	}
	// Hash collision (or a younger same-hash store): no chain to follow —
	// the pipeline stalls until the head store drains.
	return ForwardResult{StallSSN: ssn}
}

// CanDrain reports whether DrainNext(limit) would succeed: the oldest
// live store exists, is poison-free, and has SSN <= limit. It lets the
// cycle loop's skip-ahead ask "can the store buffer make progress next
// cycle?" without mutating anything.
func (b *ChainedStoreBuffer) CanDrain(limit uint64) bool {
	if b.ssnComplete >= b.ssnTail {
		return false
	}
	next := b.ssnComplete + 1
	if next > limit {
		return false
	}
	p := b.slot(next)
	return b.ssn[p] == next && b.poison[p] == 0
}

// DrainNext drains the oldest store to the cache if it is drainable: it
// must exist, be poison-free, and have SSN <= limit (the drain gate —
// stores younger than an outstanding checkpoint may not write the cache,
// or a squash could not be undone). It returns the drained entry and true
// on success.
func (b *ChainedStoreBuffer) DrainNext(limit uint64) (addr uint64, ok bool) {
	if b.ssnComplete >= b.ssnTail {
		return 0, false
	}
	next := b.ssnComplete + 1
	if next > limit {
		return 0, false
	}
	p := b.slot(next)
	if b.ssn[p] != next || b.poison[p] != 0 {
		return 0, false
	}
	b.ssnComplete = next
	return b.addr[p], true
}

// SquashTo rolls the buffer back so that ssnTail = ssn, dropping all
// younger stores (checkpoint restore), and rebuilds the chain table from
// the surviving live stores so chains stay exact. Squashes are rare, so
// the rebuild cost is irrelevant.
func (b *ChainedStoreBuffer) SquashTo(ssn uint64) {
	for s := ssn + 1; s <= b.ssnTail; s++ {
		p := b.slot(s)
		if b.ssn[p] == s {
			b.addr[p], b.ssn[p], b.link[p] = 0, 0, 0
			b.val[p], b.poison[p], b.idx[p] = 0, 0, 0
		}
	}
	b.ssnTail = ssn
	for i := range b.chain {
		b.chain[i] = 0
	}
	for s := b.ssnComplete + 1; s <= b.ssnTail; s++ {
		p := b.slot(s)
		if b.ssn[p] != s {
			continue
		}
		h := b.hash(b.addr[p])
		b.link[p] = b.chain[h]
		b.chain[h] = s
	}
}

// HopHistogram returns the histogram of excess chain hops per load
// access so far.
func (b *ChainedStoreBuffer) HopHistogram() *stats.Histogram {
	b.hops.AddN(0, b.idle)
	b.idle = 0
	return b.hops
}

// MeanExtraHops returns the average excess chain hops per load access.
func (b *ChainedStoreBuffer) MeanExtraHops() float64 { return b.HopHistogram().Mean() }

func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}
