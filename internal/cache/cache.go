// Package cache implements a set-associative cache tag array with LRU
// replacement, an optional victim buffer, and per-line speculative tagging.
//
// The simulator is trace-driven, so caches track tags only (no data — the
// functional values live in the resolved trace).
// Speculative tagging exists for SLTP's SRL-based memory system, which
// writes advance stores speculatively into the data cache and must flush
// them when a rally begins (paper §4).
package cache

import "fmt"

// Config sizes a cache.
type Config struct {
	SizeBytes     int // total capacity
	Assoc         int // ways per set
	LineBytes     int // line size (power of two)
	VictimEntries int // victim buffer entries; 0 disables it
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a positive power of two", c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d must be positive", c.Assoc)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d is not a multiple of line*assoc", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// line is one tag-array entry, packed into two words so an 8-way set
// spans two host cache lines: key is the tag plus one (0 marks an
// invalid line; only the all-ones address under 1-byte lines would wrap
// to it), and meta holds the LRU stamp in its low bits with the dirty
// and speculative (SLTP SRL mode) flags in the top two.
type line struct {
	key  uint64
	meta uint64
}

const (
	dirtyBit  = uint64(1) << 63
	specBit   = uint64(1) << 62
	stampMask = specBit - 1
)

// valid reports whether the entry holds a line.
func (l *line) valid() bool { return l.key != 0 }

// stamp returns the entry's LRU stamp.
func (l *line) stamp() uint64 { return l.meta & stampMask }

// touch sets the entry's LRU stamp, keeping its flags.
func (l *line) touch(clock uint64) { l.meta = l.meta&^stampMask | clock }

// Cache is a set-associative tag array. Create with New.
type Cache struct {
	cfg Config
	// lines holds every set back to back: set i is
	// lines[i*Assoc : (i+1)*Assoc], so a clone or copy of the tag array
	// is a single slice copy.
	lines     []line
	setMask   uint64
	lineShift uint
	clock     uint64

	// Victim buffer: a fixed FIFO ring of victimCap entries (allocated
	// once in New). vHead indexes the oldest entry; vLen counts live ones.
	// Probes walk oldest to youngest, matching insertion order.
	victim    []victimLine
	vHead     int
	vLen      int
	victimCap int

	// Stats
	Hits, Misses, VictimHits uint64
}

type victimLine struct {
	lineAddr uint64
	dirty    bool
}

// victimAt returns the i-th oldest victim entry.
func (c *Cache) victimAt(i int) *victimLine {
	idx := c.vHead + i
	if idx >= c.victimCap {
		idx -= c.victimCap
	}
	return &c.victim[idx]
}

// victimRemove deletes the i-th oldest entry, preserving FIFO order of
// the rest (younger entries shift one slot older).
func (c *Cache) victimRemove(i int) {
	for ; i < c.vLen-1; i++ {
		*c.victimAt(i) = *c.victimAt(i + 1)
	}
	c.vLen--
}

// victimPush appends an entry, evicting and returning the oldest when the
// ring is full.
func (c *Cache) victimPush(v victimLine) (old victimLine, evicted bool) {
	if c.vLen == c.victimCap {
		old = *c.victimAt(0)
		evicted = true
		c.vHead = (c.vHead + 1) % c.victimCap
		c.vLen--
	}
	*c.victimAt(c.vLen) = v
	c.vLen++
	return old, evicted
}

// New builds a cache from cfg. It panics on invalid geometry, which is a
// programming error in machine configuration, not a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, numSets*cfg.Assoc),
		setMask:   uint64(numSets - 1),
		lineShift: shift,
		victim:    make([]victimLine, cfg.VictimEntries),
		victimCap: cfg.VictimEntries,
	}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes returns the configured line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

func (c *Cache) set(addr uint64) []line {
	a := c.cfg.Assoc
	i := int((addr>>c.lineShift)&c.setMask) * a
	return c.lines[i : i+a : i+a]
}

// key returns the tag-array key of the line containing addr.
func (c *Cache) key(addr uint64) uint64 { return addr>>c.lineShift + 1 }

func (c *Cache) find(addr uint64) *line {
	key := c.key(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].key == key {
			return &set[i]
		}
	}
	return nil
}

// Lookup performs an access. On a hit it updates LRU state and returns
// true. On a miss it checks the victim buffer; a victim hit re-inserts the
// line (counted in VictimHits and reported as a hit). write marks the line
// dirty on a hit.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.clock++
	if l := c.find(addr); l != nil {
		l.touch(c.clock)
		if write {
			l.meta |= dirtyBit
		}
		c.Hits++
		return true
	}
	// Victim buffer probe.
	la := c.LineAddr(addr)
	for i := 0; i < c.vLen; i++ {
		if v := c.victimAt(i); v.lineAddr == la {
			dirty := v.dirty
			c.victimRemove(i)
			c.insertLine(addr, dirty || write, false)
			c.VictimHits++
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Probe reports whether addr is present without updating LRU or stats.
// The victim buffer is included.
func (c *Cache) Probe(addr uint64) bool {
	if c.find(addr) != nil {
		return true
	}
	la := c.LineAddr(addr)
	for i := 0; i < c.vLen; i++ {
		if c.victimAt(i).lineAddr == la {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr (e.g. on miss return). It returns
// the evicted line address and whether a valid dirty line was displaced to
// memory (after passing through the victim buffer if one is configured).
func (c *Cache) Insert(addr uint64, write bool) (evicted uint64, dirtyEvict bool) {
	return c.insertLine(addr, write, false)
}

// InsertSpeculative fills the line and tags it speculative (SLTP advance
// stores). FlushSpeculative removes all such lines.
func (c *Cache) InsertSpeculative(addr uint64) {
	c.insertLine(addr, true, true)
}

func (c *Cache) insertLine(addr uint64, dirty, spec bool) (evicted uint64, dirtyEvict bool) {
	key := c.key(addr)
	set := c.set(addr)
	c.clock++
	var flags uint64
	if dirty {
		flags |= dirtyBit
	}
	if spec {
		flags |= specBit
	}
	// Refill into an existing copy (MSHR merge already filled it).
	for i := range set {
		if set[i].key == key {
			set[i].touch(c.clock)
			set[i].meta |= flags
			return 0, false
		}
	}
	vi := 0
	for i := range set {
		if !set[i].valid() {
			vi = i
			goto fill
		}
		if set[i].stamp() < set[vi].stamp() {
			vi = i
		}
	}
	// Evict set[vi], optionally into the victim buffer.
	{
		evLine := (set[vi].key - 1) << c.lineShift
		evDirty := set[vi].meta&dirtyBit != 0
		if c.victimCap > 0 {
			if old, ev := c.victimPush(victimLine{evLine, evDirty}); ev {
				evicted, dirtyEvict = old.lineAddr, old.dirty
			}
		} else {
			evicted, dirtyEvict = evLine, evDirty
		}
	}
fill:
	set[vi] = line{key: key, meta: flags | c.clock}
	return evicted, dirtyEvict
}

// FlushSpeculative invalidates every speculatively tagged line and returns
// how many were flushed. SLTP calls this at the start of each rally.
func (c *Cache) FlushSpeculative() int {
	n := 0
	for i := range c.lines {
		if l := &c.lines[i]; l.valid() && l.meta&specBit != 0 {
			*l = line{}
			n++
		}
	}
	return n
}

// Reset invalidates the whole cache and clears statistics, victim
// buffer included: c ends up as New built it, its buffers reused.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.victim)
	c.vHead, c.vLen = 0, 0
	c.clock = 0
	c.Hits, c.Misses, c.VictimHits = 0, 0, 0
}
