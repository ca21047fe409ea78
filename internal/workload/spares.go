package workload

import (
	"slices"
	"sync"

	"icfp/internal/isa"
)

// Spares is a pool of the memory released workloads held, for later
// workloads to build over instead of first touching fresh memory: their
// traces' arrays (Spares.Generate) and the buffers their shared state
// gives up (Recycler, Workload.Spare). A run that is done with a
// workload releases it here; the next generation takes it over. The
// generator's own scratch (its map of stored words, chase rings and
// static index) goes back to the pool as each generation ends.
//
// The pool stays within what its users held at once. A trace or a
// buffer is allocated afresh only when the pool has none to give, so
// the traces and the buffers of a shared-state key in use and in the
// pool together never outnumber the most that were ever in use at once.
// A release drops the buffers of every key the released workload's
// state does not name, so state that later workloads stopped asking
// for is not carried along.
//
// A Spares is safe for concurrent use. The zero value is an empty pool;
// a nil *Spares holds nothing.
type Spares struct {
	mu       sync.Mutex
	traces   []*isa.Trace
	state    map[string][]any // buffers by shared-state key
	builders []*builder       // generator scratch, one per past concurrent generation
	fresh    int              // generations that found no trace with room
}

// Recycler is shared state (Workload.SharedState) holding buffers that a
// later workload's shared state under the same key can build over. When
// a pool takes the workload back (Spares.Release), it keeps what Recycle
// returns for that state to take (Workload.Spare); the recycled state is
// not used again.
type Recycler interface{ Recycle() []any }

// Generate is Generate building the workload's trace over a released
// one, when the pool has one; the workload's shared state then takes its
// buffers from the pool too. The workload is the one Generate builds.
func (s *Spares) Generate(p Profile, n int, seed int64) *Workload {
	return generate(p, n, seed, s)
}

// Release hands w's memory to the pool: its trace's arrays and the
// buffers its shared state gives up. Nothing may read w afterwards. A
// nil pool keeps nothing.
func (s *Spares) Release(w *Workload) {
	if s == nil {
		return
	}
	w.sharedMu.Lock()
	state := make(map[string][]any, len(w.shared))
	for k, v := range w.shared {
		if r, ok := v.(Recycler); ok {
			state[k] = r.Recycle()
		}
	}
	w.shared = nil
	w.sharedMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, w.Trace)
	for k := range state {
		state[k] = append(state[k], s.state[k]...)
	}
	s.state = state
}

// Fresh returns how many generations over the pool found no released
// trace with room for theirs, and allocated its arrays afresh.
func (s *Spares) Fresh() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fresh
}

// trace takes a released trace for a generation that needs room for n
// instructions: one with room when the pool has it, else any, else nil
// (always, for a nil pool). A trace without room still lends its Addr
// chunks; taking one keeps the pool from holding traces no generation
// fits.
func (s *Spares) trace(n int) *isa.Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := slices.IndexFunc(s.traces, func(t *isa.Trace) bool { return t.Cap() >= n })
	if k < 0 {
		s.fresh++
		k = len(s.traces) - 1
	}
	if k < 0 {
		return nil
	}
	t := s.traces[k]
	s.traces = slices.Delete(s.traces, k, k+1)
	return t
}

// take removes and returns a buffer released under key, or nil.
func (s *Spares) take(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bufs := s.state[key]
	if len(bufs) == 0 {
		return nil
	}
	b := bufs[len(bufs)-1]
	bufs[len(bufs)-1] = nil
	s.state[key] = bufs[:len(bufs)-1]
	return b
}

// builder takes a generator's scratch from the pool, or returns a new
// builder (always, for a nil pool).
func (s *Spares) builder() *builder {
	if s == nil {
		return new(builder)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.builders)
	if n == 0 {
		return new(builder)
	}
	b := s.builders[n-1]
	s.builders = s.builders[:n-1]
	return b
}

// putBuilder hands a generator's scratch back once its trace is built.
func (s *Spares) putBuilder(b *builder) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.builders = append(s.builders, b)
	s.mu.Unlock()
}
