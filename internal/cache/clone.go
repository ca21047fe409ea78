package cache

import "slices"

// Clone returns a deep copy of the cache: tag array, victim buffer, LRU
// clock, and statistics. The copy shares nothing mutable with the
// original, so warmed cache state can be checkpointed once and handed to
// any number of simulations (pipeline.WarmState). Cloning must be exact —
// a simulation started from a clone behaves byte-identically to one
// started from the original — which the warm-state equivalence tests pin.
func (c *Cache) Clone() *Cache {
	cl := *c
	cl.lines = slices.Clone(c.lines)
	cl.victim = slices.Clone(c.victim)
	return &cl
}

// CopyFrom makes c an exact copy of src, as Clone would, reusing c's
// buffers instead of allocating. The two caches must share a geometry;
// CopyFrom panics otherwise, since recycling a buffer across geometries
// is a programming error.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic("cache: CopyFrom across geometries")
	}
	lines, victim := c.lines, c.victim
	copy(lines, src.lines)
	copy(victim, src.victim)
	*c = *src
	c.lines, c.victim = lines, victim
}
