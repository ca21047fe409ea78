package exp

import (
	"sync"

	"icfp/internal/spec"
	"icfp/internal/workload"
)

// Arena is a shared workload store: each distinct workload spec
// (canonical encoding) is generated exactly once and the resulting
// *workload.Workload is handed out, read-only, to every simulation that
// asks for it. Sharing is sound because workloads are immutable during
// simulation: machines read the trace but never write it (the Prewarm
// hook writes only to the machine's own hierarchy), an invariant pinned
// by TestWorkloadImmutableAcrossModels. Trace regeneration used to
// dominate the harness — every job rebuilt its multi-hundred-kilo-
// instruction trace from scratch — so the arena is what makes the
// evaluation CPU-bound on simulation rather than on generation.
//
// An Arena built with NewArena retains every workload it generates for
// its own lifetime (benchmarks use one to time generation alone). The
// private arena each Run builds instead drops each workload as soon as
// the run's last job over it is done, so a run's memory grows with its
// parallelism, not its plan.
//
// An Arena is safe for concurrent use: the first claimant of a key
// generates, everyone else waits for its result.
type Arena struct {
	mu      sync.Mutex
	entries map[string]*arenaEntry
	gens    int // actual generations (diagnostics/tests)
	peak    int // most workloads held at once (diagnostics/tests)
}

type arenaEntry struct {
	done chan struct{}
	w    *workload.Workload
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{entries: make(map[string]*arenaEntry)}
}

// arenaKey is the arena identity of a workload spec: its base, since
// the sampling policy does not change the generated trace or image.
func arenaKey(w spec.Workload) string { return w.Base().Canonical() }

// Get returns the workload the spec declares, generating it on first
// use. The returned workload is shared: callers must treat it as
// read-only. Sharing keys on the base workload — the sampling policy
// does not change the generated trace or memory image — so sampled and
// full runs of one benchmark share a single workload, and with it the
// warmed-state checkpoint store the sampled runs attach to it
// (pipeline.WarmState): a sweep warms each workload once, not once per
// job.
func (a *Arena) Get(w spec.Workload) *workload.Workload {
	return a.get(arenaKey(w), w)
}

// get is Get with the arena key already computed.
func (a *Arena) get(key string, w spec.Workload) *workload.Workload {
	a.mu.Lock()
	e, ok := a.entries[key]
	if ok {
		a.mu.Unlock()
		<-e.done
		return e.w
	}
	e = &arenaEntry{done: make(chan struct{})}
	a.entries[key] = e
	a.gens++
	a.peak = max(a.peak, len(a.entries))
	a.mu.Unlock()
	e.w = w.New()
	close(e.done)
	return e.w
}

// release drops the workload under key, so its trace, memory image and
// warmed-state checkpoints are freed once the last simulation holding
// it returns. Only Run releases, from its private arena, once no job of
// the run will get the key again.
func (a *Arena) release(key string) {
	a.mu.Lock()
	delete(a.entries, key)
	a.mu.Unlock()
}

// Generations returns how many workloads were actually generated — at
// most once per distinct key, by construction.
func (a *Arena) Generations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gens
}
