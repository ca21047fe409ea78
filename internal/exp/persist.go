package exp

import (
	"sort"
	"time"

	"icfp/internal/pipeline"
)

// CachedResult is one completed simulation as it is persisted (a result
// store record, internal/store) or shipped between processes (a dist
// result frame): the full memoization key (canonical machine and
// workload specs) plus its result. Simulations are deterministic pure
// functions of the key, which is what makes reloading them in a later
// process sound.
//
// ElapsedNS records the simulation's wall time. Unlike the result it is
// not deterministic — it describes the machine that ran the simulation,
// not the simulation — and exists only to seed dispatch-time cost models
// (internal/dist): zero means "unmeasured" and is always safe. The field
// is additive and optional, so readers old and new interchange freely
// (see the versioning rules in docs/ARCHITECTURE.md).
type CachedResult struct {
	Machine   string          `json:"machine"`
	Workload  string          `json:"workload"`
	R         pipeline.Result `json:"result"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`
}

// Snapshot returns every completed cache entry in deterministic
// (machine, workload) order. In-flight entries are skipped: a snapshot
// taken concurrently with a run captures only finished work.
func (c *Cache) Snapshot() []CachedResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedResult, 0, len(c.entries))
	for k, e := range c.entries {
		select {
		case <-e.done:
			out = append(out, CachedResult{Machine: k.Machine, Workload: k.Workload, R: e.res, ElapsedNS: int64(e.elapsed)})
		default:
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Workload < b.Workload
	})
	return out
}

// AddResults pre-fills the cache with completed results (typically read
// from a result store). Keys already present are left untouched. Added
// entries count as cache hits, not simulations.
func (c *Cache) AddResults(rs []CachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rs {
		k := Key{Machine: r.Machine, Workload: r.Workload}
		if _, ok := c.entries[k]; ok {
			continue
		}
		e := &entry{done: make(chan struct{}), res: r.R, elapsed: time.Duration(r.ElapsedNS)}
		close(e.done)
		c.entries[k] = e
	}
}
