// Package exp is the experiment-orchestration harness behind the paper's
// evaluation: it runs named (machine, workload) jobs on a worker pool,
// memoizes simulations so shared baselines run exactly once, generates
// each distinct workload once in a shared read-only arena, and collects
// results into typed, JSON-exportable result sets.
//
// Jobs are declarative: a job carries a spec.Machine and a spec.Workload
// — serializable data, not closures — and the cache key of a simulation
// is the pair of their canonical encodings (spec.Machine.Canonical,
// spec.Workload.Canonical). That single identity is used everywhere a
// simulation is named: the in-process memo cache, the persistent result
// store, and the distributed dispatch protocol all key on the same
// strings, so results computed anywhere are reusable everywhere.
//
// Simulations in this module are deterministic pure functions of their
// (machine spec, workload spec) inputs, which is what makes the design
// sound: runs can be farmed out to any number of workers without
// changing results, and a result computed for one experiment can be
// reused verbatim by another.
package exp

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icfp/internal/obs"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
)

// Runner runs a workload; every machine a spec can name satisfies it.
type Runner = spec.Runner

// Job is one named simulation: a declared machine run over a declared
// workload. It is the suite's own job type, so a decoded suite's jobs run
// and render as they are. Job names index the ResultSet and must be
// unique within one Run call; distinct jobs may share a cache key (equal
// canonical machine and workload specs), in which case the simulation
// happens once.
type Job = spec.Job

// Key is the memoization key of a simulation: the canonical encodings of
// its machine and workload specs (spec.Job.Key).
type Key = spec.Key

// KeyOf returns the memoization key of a self-describing spec job.
func KeyOf(sj spec.Job) Key { return sj.Key() }

// newRunner builds a job's machine; engine tests swap it to inject
// synthetic runners (see engine_test.go).
var newRunner = func(j Job) (Runner, error) { return j.Machine.New() }

// Cache memoizes simulation results across Run calls. The zero value is
// not usable; create one with NewCache. A single cache may be shared by
// concurrent Run calls: the first claimant of a key simulates, everyone
// else waits for its result.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	runs    map[Key]int // actual simulations per key (diagnostics/tests)

	// Telemetry (Instrument). All nil-safe no-ops until a registry is
	// attached, so the uninstrumented path pays one nil check per event.
	reg      *obs.Registry
	hits     *obs.Counter
	misses   *obs.Counter
	inflight *obs.Gauge
}

type entry struct {
	done    chan struct{}
	res     pipeline.Result
	elapsed time.Duration // wall time of the simulation (0 for preloaded results)
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[Key]*entry), runs: make(map[Key]int)}
}

// Instrument attaches a metrics registry: cache hits/misses
// (exp_cache_hits_total / exp_cache_misses_total — a hit is any claim or
// lookup answered without a new simulation), in-flight simulations
// (exp_cache_inflight), and the per-model simulation totals that Run
// records (exp_simulations_total, exp_sim_instructions_total,
// exp_sim_elapsed_ns_total, exp_sim_seconds). A nil registry detaches.
func (c *Cache) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = reg
	c.hits = reg.Counter("exp_cache_hits_total", "simulations answered from the memo cache (claims and lookups)")
	c.misses = reg.Counter("exp_cache_misses_total", "cache claims and lookups that found no completed result")
	c.inflight = reg.Gauge("exp_cache_inflight", "simulations claimed but not yet finished")
}

// registry returns the attached metrics registry (nil when
// uninstrumented); Run uses it for the per-model simulation totals.
func (c *Cache) registry() *obs.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg
}

// claim returns the entry for k and whether the caller claimed it (and
// must simulate, then call finish).
func (c *Cache) claim(k Key) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.hits.Inc()
		return e, false
	}
	e := &entry{done: make(chan struct{})}
	c.entries[k] = e
	c.misses.Inc()
	c.inflight.Add(1)
	return e, true
}

// finish publishes the result of a claimed entry, recording how long the
// simulation took (the width of its timeline span).
func (c *Cache) finish(k Key, e *entry, res pipeline.Result, elapsed time.Duration) {
	c.mu.Lock()
	c.runs[k]++
	c.mu.Unlock()
	e.res = res
	e.elapsed = elapsed
	c.inflight.Add(-1)
	close(e.done)
}

// completed returns k's entry if its simulation has finished, counting
// no hit or miss: Lookup and Elapsed count for their callers, and the
// dispatcher peeks through it on no one's behalf. In-flight entries read
// as absent.
func (c *Cache) completed(k Key) (*entry, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		return e, true
	default:
		return nil, false
	}
}

// Simulations returns the total number of actual simulator runs recorded
// by the cache (cache hits are not counted).
func (c *Cache) Simulations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.runs {
		n += v
	}
	return n
}

// Lookup returns the completed result for k, if the cache has one.
// In-flight entries read as absent: Lookup never blocks on a simulation
// another claimant is still running.
func (c *Cache) Lookup(k Key) (pipeline.Result, bool) {
	e, ok := c.completed(k)
	if !ok {
		c.misses.Inc()
		return pipeline.Result{}, false
	}
	c.hits.Inc()
	return e.res, true
}

// Elapsed returns the wall time the completed simulation for k took, if
// the cache has one. Results merged via AddResults report the elapsed
// time their record carried (zero when it predates timing capture);
// in-flight entries read as absent, like Lookup.
func (c *Cache) Elapsed(k Key) (time.Duration, bool) {
	e, ok := c.completed(k)
	if !ok {
		return 0, false
	}
	return e.elapsed, true
}

// options collects Run configuration.
type options struct {
	parallelism int
	cache       *Cache
	onRun       func(Key)
	cancel      <-chan struct{}
	spans       *obs.SpanLog
}

// Option configures Run.
type Option func(*options)

// Parallelism sets the worker-pool size. Values below 1 (and the
// default) mean GOMAXPROCS workers. Results are identical for every
// setting; only wall-clock time changes.
func Parallelism(n int) Option {
	return func(o *options) { o.parallelism = n }
}

// WithCache routes the run through a shared memoization cache, so
// simulations already performed — by this run or any earlier one sharing
// the cache — are reused instead of repeated.
func WithCache(c *Cache) Option {
	return func(o *options) { o.cache = c }
}

// OnRun installs a hook invoked once per actual simulation (never for
// cache hits), after the simulation completes. Calls may arrive from any
// worker but never concurrently.
func OnRun(f func(Key)) Option {
	return func(o *options) { o.onRun = f }
}

// WithSpans records one obs.Span per actual simulation (never for cache
// hits) into l, labeled with the pool worker that ran it — the
// -run-summary timeline. A nil log records nothing.
func WithSpans(l *obs.SpanLog) Option {
	return func(o *options) { o.spans = l }
}

// ErrCanceled reports that a Run was abandoned through a Cancel channel
// before every job completed.
var ErrCanceled = errors.New("exp: run canceled")

// Cancel makes the run abandonable: once ch fires — close it to cancel;
// a closed channel is the only signal every waiter observes — workers
// stop starting new simulations (each at most finishes the one it is
// mid-flight on; claimed cache entries are always completed, never torn)
// and Run returns ErrCanceled instead of results. A single value send
// also cancels (the first receipt is latched for the whole pool), but
// close is the intended idiom. Completed simulations stay in the shared
// cache. This is the drain path of distributed workers leaving an
// elastic fleet (internal/dist).
func Cancel(ch <-chan struct{}) Option {
	return func(o *options) { o.cancel = ch }
}

// validate fails fast on malformed job sets (duplicate names, invalid
// machine or workload specs) before any simulation or dispatch happens.
func validate(jobs []Job) error {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		switch {
		case j.Name == "":
			return fmt.Errorf("exp: job with empty name (machine %s, workload %s)", j.Machine.Canonical(), j.Workload.Canonical())
		case seen[j.Name]:
			return fmt.Errorf("exp: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if err := j.Validate(); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
	}
	return nil
}

// Plan validates the job set exactly as Run does and returns its
// deduplicated simulations as self-describing specs, in first-appearance
// order. The plan is the unit of distribution: every entry is one
// simulation that has to happen somewhere, so a dispatcher
// (internal/dist) can shard the plan across worker processes — each
// entry carries everything a worker needs to run it — merge the
// resulting CachedResults into a cache, and then Run locally entirely
// from cache hits.
func Plan(jobs []Job) ([]spec.Job, error) {
	if err := validate(jobs); err != nil {
		return nil, err
	}
	first, _, _ := PlanValidated(jobs)
	plan := make([]spec.Job, len(first))
	for i, j := range first {
		plan[i] = spec.Job{Machine: jobs[j].Machine, Workload: jobs[j].Workload}
	}
	return plan, nil
}

// PlanValidated is Plan for jobs that have validated already — the jobs
// of a suite spec.UnmarshalSuite returned — without validating them
// again, and without copying them. Plan entry i is the simulation of
// jobs[first[i]], the first job to name it; keys[i] is its key, computed
// once while deduplicating; and at[j] is jobs[j]'s entry. A caller that
// looks every entry up by key and renders from the entries' results (the
// expq daemon, with Collect) encodes each spec once.
func PlanValidated(jobs []Job) (first []int, keys []Key, at []int) {
	index := make(map[Key]int, len(jobs))
	first = make([]int, 0, len(jobs))
	keys = make([]Key, 0, len(jobs))
	at = make([]int, len(jobs))
	for j := range jobs {
		k := jobs[j].Key()
		i, ok := index[k]
		if !ok {
			i = len(first)
			index[k] = i
			first = append(first, j)
			keys = append(keys, k)
		}
		at[j] = i
	}
	return first, keys, at
}

// Run executes the jobs on a worker pool and returns their results in job
// order. Jobs with equal cache keys simulate once; with a WithCache
// option, memoization also spans earlier runs. Run fails fast on
// malformed job sets (duplicate names, invalid specs) before simulating
// anything.
//
// Jobs are dispatched workload-major: grouped by workload, groups in
// order of first appearance. Each Run owns a private arena: it generates
// each workload once and drops it once its last job is done with it
// (simulated, parked behind another claimant, answered from the cache,
// or skipped on cancel), so the run holds about one workload per pool
// worker, however many the plan names.
//
// With two or more workers, Run also generates ahead: once a worker has
// taken a group's first job, a helper goroutine generates the next
// group's workload, unless every job of that group is already complete
// in the cache. A workload-major pool otherwise meets each workload with
// all its workers at once, and all but one would wait out the
// generation. The helper pins its group like a job, so the arena holds
// at most one workload per worker plus the one being generated ahead.
func Run(jobs []Job, opts ...Option) (*ResultSet, error) {
	o := options{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.parallelism < 1 {
		o.parallelism = runtime.GOMAXPROCS(0)
	}
	// More pool workers than jobs would only park idle goroutines — and
	// lets a hostile parallelism setting (dist specs arrive over the
	// network) cost at most len(jobs) goroutines.
	o.parallelism = min(o.parallelism, len(jobs))
	if o.cache == nil {
		o.cache = NewCache()
	}
	arena := privateArena()

	if err := validate(jobs); err != nil {
		return nil, err
	}

	// Each key is computed once, here; the pool reuses it. The arena key
	// equals the canonical workload unless a live sampling policy sets
	// the two apart, so only sampled jobs pay a second encoding.
	keys := make([]Key, len(jobs))
	wkeys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
		wkeys[i] = keys[i].Workload
		if j.Workload.Sampling.Live() {
			wkeys[i] = arenaKey(j.Workload)
		}
	}
	order, group, groups := workloadMajor(wkeys)
	// Group g's jobs are order[bounds[g]:bounds[g+1]].
	bounds := make([]int, groups+1)
	for _, g := range group {
		bounds[g+1]++
	}
	for g := range groups {
		bounds[g+1] += bounds[g]
	}
	// left counts each workload's jobs (and generate-ahead helpers) not
	// yet done with it; the one that takes it to zero releases the
	// workload from the arena.
	left := make([]atomic.Int32, groups)
	for _, g := range group {
		left[g].Add(1)
	}
	done := func(i int) {
		if left[group[i]].Add(-1) == 0 {
			arena.release(wkeys[i])
		}
	}

	var hookMu sync.Mutex
	// canceled latches the first cancel receipt, so even a single value
	// sent on the channel (rather than the idiomatic close) stops every
	// pool worker and is still visible to the final check below.
	var canceled atomic.Bool
	stopped := func() bool {
		if canceled.Load() {
			return true
		}
		select {
		case <-o.cancel: // a nil channel (no Cancel option) never fires
			canceled.Store(true)
			return true
		default:
			return false
		}
	}
	work := make(chan int)
	results := make([]pipeline.Result, len(jobs))
	// Jobs whose key is claimed by a still-running simulation are parked
	// here instead of blocking a pool slot; they are resolved after the
	// pool drains, by which point every claimant has finished.
	var deferredMu sync.Mutex
	type pending struct {
		idx int
		e   *entry
	}
	var deferred []pending
	var wg sync.WaitGroup
	for w := 0; w < o.parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if stopped() {
					done(i)
					continue // drain the queue without simulating
				}
				j := jobs[i]
				k := keys[i]
				e, claimed := o.cache.claim(k)
				if claimed {
					r, err := newRunner(j)
					if err != nil {
						// validate() vetted every spec; a constructor
						// failure here is a bug, not an input error.
						panic(fmt.Sprintf("exp: job %q: %v", j.Name, err))
					}
					start := time.Now()
					wk := arena.get(wkeys[i], j.Workload)
					var res pipeline.Result
					if pol := j.Workload.Sampling; pol.Live() {
						// Every machine a spec can name implements sampled
						// runs; synthetic test runners that don't simply
						// cannot be asked for a live sampled workload.
						res = r.(spec.SampledRunner).RunSampled(wk, pol.Policy())
					} else {
						res = r.Run(wk)
					}
					end := time.Now()
					done(i)
					elapsed := end.Sub(start)
					o.cache.finish(k, e, res, elapsed)
					if reg := o.cache.registry(); reg != nil {
						model := j.Machine.Model
						reg.Counter("exp_simulations_total", "actual simulator runs per model (cache hits excluded)", "model", model).Inc()
						reg.Counter("exp_sim_instructions_total", "simulated instructions per model", "model", model).Add(res.Insts)
						reg.Counter("exp_sim_elapsed_ns_total", "wall time spent simulating per model, in nanoseconds", "model", model).Add(int64(elapsed))
						reg.Histogram("exp_sim_seconds", "wall time of individual simulations", obs.DefSecondsBuckets).Observe(elapsed.Seconds())
					}
					o.spans.Add(obs.Span{Machine: k.Machine, Workload: k.Workload, Worker: fmt.Sprintf("pool-%d", w), Start: start, End: end, ElapsedNS: int64(elapsed)})
					if o.onRun != nil {
						hookMu.Lock()
						o.onRun(k)
						hookMu.Unlock()
					}
				} else {
					done(i)
					select {
					case <-e.done:
					default:
						deferredMu.Lock()
						deferred = append(deferred, pending{idx: i, e: e})
						deferredMu.Unlock()
						continue
					}
				}
				results[i] = e.res
			}
		}()
	}
	// Generate-ahead helpers: one per group at most, each holding a pin
	// on its group until its generation returns. The dispatcher starts
	// a helper only once the previous one has returned, so however the
	// helpers are scheduled at most one is in flight: a helper that
	// lingers after its generation would otherwise keep its group live
	// while later groups are generated ahead of it.
	var helpers sync.WaitGroup
	var helper chan struct{} // closed when the last helper returns
	genAhead := func(g int) {
		grp := order[bounds[g]:bounds[g+1]]
		uncached := func(i int) bool { _, ok := o.cache.completed(keys[i]); return !ok }
		if stopped() || !slices.ContainsFunc(grp, uncached) {
			return
		}
		if helper != nil {
			<-helper
		}
		i := grp[0]
		left[g].Add(1)
		helper = make(chan struct{})
		helpers.Add(1)
		go func(returned chan struct{}) {
			defer helpers.Done()
			defer close(returned)
			arena.get(wkeys[i], jobs[i].Workload)
			if genAheadHook != nil {
				genAheadHook()
			}
			done(i)
		}(helper)
	}
	for pos, i := range order {
		work <- i
		// A worker has taken job i; if it opens a group, generate the
		// next group's workload now.
		if g := group[i]; o.parallelism >= 2 && pos == bounds[g] && g+1 < groups {
			genAhead(g + 1)
		}
	}
	close(work)
	wg.Wait()
	helpers.Wait()
	if stopped() {
		// Claimed entries were all finished (claim-then-simulate is
		// never abandoned mid-key), so the cache is consistent; only
		// this run's result set is incomplete.
		return nil, ErrCanceled
	}
	for _, d := range deferred {
		<-d.e.done
		results[d.idx] = d.e.res
	}
	return Collect(jobs, nil, results), nil
}

// genAheadHook, when set, runs in each generate-ahead helper between its
// generation and unpinning its group; tests use it to delay helpers.
var genAheadHook func()

// privateArena builds the arena each Run owns; engine tests swap it to
// watch how many workloads the run holds.
var privateArena = NewArena

// workloadMajor returns the dispatch order of jobs with the given arena
// keys — grouped by key, groups in order of first appearance, job order
// within a group — plus each job's group index and the number of groups.
func workloadMajor(wkeys []string) (order, group []int, groups int) {
	first := make(map[string]int)
	group = make([]int, len(wkeys))
	for i, k := range wkeys {
		g, ok := first[k]
		if !ok {
			g = len(first)
			first[k] = g
		}
		group[i] = g
	}
	order = make([]int, len(wkeys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return group[a] - group[b] })
	return order, group, len(first)
}
