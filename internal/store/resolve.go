package store

import (
	"unsafe"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
)

// A Resolution is a plan's keys looked up in the store: for each key its
// stored result, or a miss. A resolution whose every key hit, each from
// an index entry holding the result as its decoded copy, can be renewed
// (Revalidate) for as long as none of those entries has been dropped:
// an indexed entry's result never changes its bits, so the renewed
// resolution stands for the same results without a single key lookup.
// A Resolution does not change once Resolve returns it.
type Resolution struct {
	s    *Store
	ents []resolved
	hits int
	// renewable reports that every key hit and every entry's m is set:
	// the condition for Revalidate to renew the resolution.
	renewable bool
}

// resolved is one key of a Resolution: its result, nil on a miss, and
// the index entry holding that result, nil on a miss or when the result
// was read but not kept as the entry's decoded copy.
type resolved struct {
	res *exp.CachedResult
	m   *recMeta
}

// Resolve looks every key up as Get does, in order, and returns the
// resolution. It stops at the first error.
func (s *Store) Resolve(keys []exp.Key) (*Resolution, error) {
	r := &Resolution{s: s, ents: make([]resolved, len(keys)), renewable: true}
	for i, k := range keys {
		res, m, err := s.get(k)
		if err != nil {
			return nil, err
		}
		r.ents[i] = resolved{res: res, m: m}
		if res != nil {
			r.hits++
		}
		r.renewable = r.renewable && m != nil
	}
	return r, nil
}

// Hits returns how many of the resolution's keys hit.
func (r *Resolution) Hits() int { return r.hits }

// Result returns key i's stored result; ok is false when key i missed.
func (r *Resolution) Result(i int) (res pipeline.Result, ok bool) {
	if e := r.ents[i].res; e != nil {
		return e.R, true
	}
	return pipeline.Result{}, false
}

// Bytes is the memory the resolution holds beyond its results, which
// its store's index shares.
func (r *Resolution) Bytes() int {
	return len(r.ents) * int(unsafe.Sizeof(resolved{}))
}

// Revalidate renews r as a fresh Resolve of the same keys would, and
// reports whether it could: only a resolution whose every key hit from
// an index entry holding its decoded copy, none of which has been
// dropped since, is renewed. Renewing it costs what a hit costs once
// its key is found: under one lock and one clock read, every entry's
// access time is stamped and its file's mtime refreshed when due, and
// every key counts as a hit. A resolution that cannot be renewed
// changes nothing; its keys must be resolved again.
func (r *Resolution) Revalidate() bool {
	if !r.renewable {
		return false
	}
	s := r.s
	t := now()
	var touch []string
	s.mu.Lock()
	for _, e := range r.ents {
		if e.m.dropped {
			s.mu.Unlock()
			return false
		}
	}
	for _, e := range r.ents {
		e.m.access = t
		if e.m.due(t) {
			touch = append(touch, e.m.hash)
		}
	}
	s.mu.Unlock()
	for _, hash := range touch {
		s.touch(hash, t)
	}
	s.hits.Add(int64(len(r.ents)))
	return true
}
