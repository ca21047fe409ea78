package mem

// CloneCaches returns a hierarchy under cfg holding exact copies of
// src's three caches, with every other piece of state — bus and MSHR
// clocks, in-flight fills, stream buffers, miss filter, statistics, the
// MissObserver — as New(cfg) builds it. Functional warming touches only
// the caches, so this is how warmed state is checkpointed once and handed
// to any number of simulations (pipeline.WarmState), including machines
// whose latencies, MSHRs, bus or stream buffers differ from the one that
// warmed it; cfg's cache geometries must equal src's. The copy shares
// nothing mutable with src, and it must be exact: a run started from it
// is byte-identical to one started from directly warmed state, which the
// warm-state equivalence tests pin.
func CloneCaches(cfg Config, src *Hierarchy) *Hierarchy {
	h := &Hierarchy{ICache: src.ICache.Clone(), DCache: src.DCache.Clone(), L2: src.L2.Clone()}
	h.reset(cfg)
	return h
}

// CopyCaches is CloneCaches into h, overwriting its caches in place
// instead of allocating: h ends up indistinguishable from
// CloneCaches(cfg, src).
func (h *Hierarchy) CopyCaches(cfg Config, src *Hierarchy) {
	h.ICache.CopyFrom(src.ICache)
	h.DCache.CopyFrom(src.DCache)
	h.L2.CopyFrom(src.L2)
	h.reset(cfg)
}

// Reset is New(cfg) into h: it empties h's caches in place instead of
// allocating, and leaves every other piece of state as New builds it.
// cfg's cache geometries must equal h's.
func (h *Hierarchy) Reset(cfg Config) {
	h.ICache.Reset()
	h.DCache.Reset()
	h.L2.Reset()
	h.reset(cfg)
}
