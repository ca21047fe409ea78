package pipeline

import "icfp/internal/mem"

// StoreBuffer is the conventional associatively-searched store buffer
// found in the baseline in-order pipeline (Table 1: 32 entries). Stores
// enter at issue and drain to the data cache in program order at one per
// cycle once their cache write completes; loads forward from the youngest
// matching older store.
type StoreBuffer struct {
	cap     int
	hier    *mem.Hierarchy
	entries []sbEntry
	// lastDrain is the completion cycle of the most recent drained store;
	// drains are serialized through the single cache write port.
	lastDrain int64

	Forwards uint64
}

type sbEntry struct {
	addr uint64
	val  uint64
	done int64 // cycle the entry's cache write completes (entry frees)
}

// NewStoreBuffer builds a store buffer of the given capacity draining
// into h. The entry backing is allocated once: occupancy never exceeds
// the capacity, so the compact/insert churn reuses it allocation-free.
func NewStoreBuffer(capacity int, h *mem.Hierarchy) *StoreBuffer {
	return &StoreBuffer{cap: capacity, hier: h, entries: make([]sbEntry, 0, capacity)}
}

// compact drops entries whose drain completed by cycle.
func (b *StoreBuffer) compact(cycle int64) {
	live := b.entries[:0]
	for _, e := range b.entries {
		if e.done > cycle {
			live = append(live, e)
		}
	}
	b.entries = live
}

// FullUntil returns the earliest cycle >= cycle at which a free entry
// exists, so callers can charge the stall before taking an issue slot.
func (b *StoreBuffer) FullUntil(cycle int64) int64 {
	b.compact(cycle)
	for len(b.entries) >= b.cap {
		oldest := b.entries[0].done
		for _, e := range b.entries {
			if e.done < oldest {
				oldest = e.done
			}
		}
		cycle = oldest
		b.compact(cycle)
	}
	return cycle
}

// Insert accepts a store issued at cycle and returns the cycle at which
// the store actually occupies an entry (later than cycle if the buffer is
// full and the pipeline must stall for a drain).
func (b *StoreBuffer) Insert(cycle int64, addr, val uint64) int64 {
	cycle = b.FullUntil(cycle)
	// Schedule this store's drain. Drain *initiations* are serialized
	// through the single cache write port (one per cycle), but their
	// completions overlap: a store miss occupies an MSHR, not the port.
	start := cycle
	if b.lastDrain+1 > start {
		start = b.lastDrain + 1
	}
	b.lastDrain = start
	r := b.hier.Data(start, addr, true)
	done := r.Done + 1
	b.entries = append(b.entries, sbEntry{addr: addr, val: val, done: done})
	return cycle
}

// Forward returns the value of the youngest not-yet-drained store to addr
// at the given cycle.
func (b *StoreBuffer) Forward(cycle int64, addr uint64) (uint64, bool) {
	b.compact(cycle)
	for i := len(b.entries) - 1; i >= 0; i-- {
		if b.entries[i].addr == addr {
			b.Forwards++
			return b.entries[i].val, true
		}
	}
	return 0, false
}
