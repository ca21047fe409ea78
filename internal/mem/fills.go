package mem

// fillTable is the hierarchy's set of in-flight L2-line fills, line ->
// completion cycle: an open-addressed, linearly probed table of
// (line+1, done) slots, where key 0 marks an empty slot.
//
// It behaves exactly as a map[uint64]int64 with lazy deletion: put
// inserts or overwrites, and probe deletes an entry only when it finds
// it stale (done <= the probing cycle). A stale entry that is never
// probed again stays, because probe cycles are not monotonic: a core
// may probe at a cycle earlier than one that already saw the entry
// stale, and must then still see the fill in flight. The table
// therefore grows with the number of distinct lines filled, not with
// the fills live at once.
type fillTable struct {
	slots []fillSlot
	n     int    // occupied slots
	shift uint   // 64 - log2(len(slots)): hash to slot index
	mask  uint64 // len(slots) - 1
}

type fillSlot struct {
	key  uint64 // line + 1; 0 = empty
	done int64
}

// minFillSlots is the table's initial size, a power of two.
const minFillSlots = 128

// home returns the slot a key hashes to (Fibonacci hashing: the top bits
// of the product mix every bit of the line-aligned key).
func (t *fillTable) home(key uint64) uint64 {
	return key * 0x9E3779B97F4A7C15 >> t.shift
}

// probe returns the completion cycle of the fill of line, or 0 if none is
// in flight at cycle; a stale entry (done <= cycle) is deleted.
func (t *fillTable) probe(line uint64, cycle int64) int64 {
	if t.n == 0 {
		return 0 // nothing recorded (and perhaps no slots yet)
	}
	key := line + 1
	for i := t.home(key); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.key {
		case 0:
			return 0
		case key:
			if s.done <= cycle {
				t.remove(i)
				return 0
			}
			return s.done
		}
	}
}

// put records a fill of line completing at done, overwriting any entry
// for line.
func (t *fillTable) put(line uint64, done int64) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	key := line + 1
	for i := t.home(key); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.key {
		case 0:
			*s = fillSlot{key: key, done: done}
			t.n++
			return
		case key:
			s.done = done
			return
		}
	}
}

// remove empties slot i, shifting later members of its probe run back so
// every remaining key stays reachable from its home slot without
// tombstones.
func (t *fillTable) remove(i uint64) {
	t.n--
	for j := (i + 1) & t.mask; ; j = (j + 1) & t.mask {
		s := t.slots[j]
		if s.key == 0 {
			break
		}
		// s may move into the hole at i unless its home lies cyclically
		// in (i, j]: then it is already as close to home as it can be.
		if (j-t.home(s.key))&t.mask >= (j-i)&t.mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = fillSlot{}
}

// grow doubles the table (or allocates its first slots) and rehashes.
func (t *fillTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minFillSlots {
		size = minFillSlots
	}
	t.slots = make([]fillSlot, size)
	t.mask = uint64(size - 1)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
	for _, s := range old {
		if s.key != 0 {
			t.put(s.key-1, s.done)
		}
	}
}

// reset empties the table, keeping its slots.
func (t *fillTable) reset() {
	clear(t.slots)
	t.n = 0
}
