package registry

import (
	"fmt"
	"io"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/spec"
)

// Plan returns the deduplicated simulation jobs of the named
// experiments, in first-appearance order: exactly the keys a Report of
// them needs. Store-backed CLIs look these keys up before a run, so
// stored results are neither simulated nor dispatched.
func Plan(names []string, p Params) ([]spec.Job, error) {
	_, jobs, _, err := collect(names, p)
	if err != nil {
		return nil, err
	}
	plan, err := exp.Plan(jobs)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return plan, nil
}

// ReportDistributed is the distributed counterpart of Report: it plans
// the named experiments' deduplicated jobs, shards them across the dist
// workers (workerParallel is each worker's internal pool size), merges
// the streamed results into cache, and renders every experiment locally
// from the warm cache. Keys already in the cache are not dispatched.
// Because simulations are deterministic pure functions of their specs
// and results round-trip JSON exactly, the rendered report is
// byte-identical to a single-process Report at any worker count. Every
// dispatched job is self-describing, so workers need no matching job
// table — only a compatible simulator. The dispatch options pass
// through to dist.Run except Parallel, which this function owns; a zero
// BatchSize selects the dispatcher's cost-aware sizing.
func ReportDistributed(w io.Writer, names []string, p Params, workers []dist.Worker, workerParallel int, cache *exp.Cache, opts dist.Options) (map[string]*exp.ResultSet, error) {
	if cache == nil {
		cache = exp.NewCache()
	}
	plan, err := Plan(names, p)
	if err != nil {
		// dist.Run closes every worker transport on all of its paths;
		// this early return must do the same or connections leak.
		dist.CloseAll(workers)
		return nil, err
	}
	opts.Parallel = workerParallel
	if err := dist.Run(plan, workers, cache, opts); err != nil {
		return nil, err
	}
	// Every key is now cached: this Run simulates nothing, it only
	// assembles result sets and renders — same code path, same bytes.
	return Report(w, names, p, exp.WithCache(cache), exp.Parallelism(1))
}
