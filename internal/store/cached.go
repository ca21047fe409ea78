package store

import (
	"icfp/internal/exp"
	"icfp/internal/spec"
)

// Preload adds every job of plan the store holds to cache, returning how
// many hit. A run on that cache does not simulate preloaded keys again.
func (s *Store) Preload(cache *exp.Cache, plan []spec.Job) (int, error) {
	hits := 0
	for _, sj := range plan {
		rec, ok, err := s.Get(exp.KeyOf(sj))
		if err != nil {
			return hits, err
		}
		if ok {
			cache.AddResults([]exp.CachedResult{rec})
			hits++
		}
	}
	return hits, nil
}

// PutCached persists cache's completed result for k and returns the
// record written. ok is false, and nothing is
// written, when the cache holds no completed result for k. It is the
// per-result hook of every store-backed run: exp.OnRun on a local pool,
// dist.Options.OnMerge on a fleet.
func (s *Store) PutCached(cache *exp.Cache, k exp.Key) (rec exp.CachedResult, ok bool, err error) {
	res, ok := cache.Lookup(k)
	if !ok {
		return exp.CachedResult{}, false, nil
	}
	rec = exp.CachedResult{Machine: k.Machine, Workload: k.Workload, R: res}
	return rec, true, s.Put(rec)
}
