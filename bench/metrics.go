package main

import (
	"math"
	"sync"

	"icfp/internal/spec"
)

// metricDef names one metric the benchmark reports: BENCHMARK.json lists
// the same names with the same units (TestBenchmarkJSONMatchesCatalogue).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// e2eMetrics are measured on untraced runs and reported for every
// workload, their times adjusted to a quiet host (see quiet). An operation
// is the workload's unit of user-visible work: one cold paper run
// (paper-*), one suite submission (serve-*), one fleet run (fleet).
var e2eMetrics = []metricDef{
	{"op_p50_ms", "ms", "lower"},     // median operation latency
	{"op_tail_ms", "ms", "lower"},    // latency at tailPercentile of the run's operation count
	{"ops_per_s", "1/s", "higher"},   // operations completed per second of round time
	{"cpu_ms_per_op", "ms", "lower"}, // host CPU (user+sys) per operation, all threads
	{"peak_rss_mb", "MB", "lower"},   // median over the run's child processes of their peak RSS
	{"setup_s", "s", "lower"},        // the workload's set-up in the child, median over the run's children
}

// modelKeys maps each core model to its metric prefix.
var modelKeys = []struct{ key, model string }{
	{"inorder", spec.ModelInOrder},
	{"ooo", spec.ModelOOO},
	{"runahead", spec.ModelRunahead},
	{"multipass", spec.ModelMultipass},
	{"sltp", spec.ModelSLTP},
	{"icfp", spec.ModelICFP},
}

// modelKey returns the metric prefix of a spec model name.
func modelKey(model string) string {
	for _, m := range modelKeys {
		if m.model == model {
			return m.key
		}
	}
	return model
}

// layerMetrics lists the per-layer metrics of traced runs. Every workload
// reports all of them; a layer the workload never calls reads 0.
func layerMetrics() []metricDef {
	var out []metricDef
	for _, m := range modelKeys {
		out = append(out,
			metricDef{m.key + ".sim_s", "s", "lower"},
			metricDef{m.key + ".sims", "count", "lower"},
			metricDef{m.key + ".minst_per_s", "Minst/s", "higher"},
			metricDef{m.key + ".share", "frac", "lower"},
		)
	}
	return append(out,
		metricDef{"workload.generate_s", "s", "lower"},
		metricDef{"workload.traces", "count", "lower"},
		metricDef{"workload.minst_per_s", "Minst/s", "higher"},
		metricDef{"pipeline.warmstate_s", "s", "lower"},
		metricDef{"pipeline.warm_points", "count", "lower"},
		metricDef{"exp.jobs", "count", "lower"},
		metricDef{"exp.plan_keys", "count", "lower"},
		metricDef{"exp.dedup_ratio", "ratio", "higher"},
		metricDef{"exp.pool_idle_frac", "frac", "lower"},
		metricDef{"spec.decode_us", "us", "lower"},
		metricDef{"registry.describe_ms", "ms", "lower"},
		metricDef{"registry.render_ms", "ms", "lower"},
		metricDef{"store.get_us_p50", "us", "lower"},
		metricDef{"store.get_us_p99", "us", "lower"},
		metricDef{"store.hits", "count", "higher"},
		metricDef{"serve.plan_ms_p50", "ms", "lower"},
		metricDef{"serve.render_ms_p50", "ms", "lower"},
		metricDef{"serve.store_hit_ratio", "frac", "higher"},
		metricDef{"serve.hit_p99_ms", "ms", "lower"},
		metricDef{"store.put_us_p50", "us", "lower"},
		metricDef{"store.put_us_p99", "us", "lower"},
		metricDef{"store.misses", "count", "lower"},
		metricDef{"store.puts", "count", "lower"},
		metricDef{"store.mb", "MB", "lower"},
		metricDef{"serve.miss_sim_ms_p50", "ms", "lower"},
		metricDef{"serve.miss_p90_ms", "ms", "lower"},
		metricDef{"serve.dispatched", "count", "lower"},
		metricDef{"serve.heap_mb", "MB", "lower"},
		metricDef{"dist.batches", "count", "lower"},
		metricDef{"dist.requeued", "count", "lower"},
		metricDef{"dist.wire_mb", "MB", "lower"},
		metricDef{"dist.merge_gap_ms_p50", "ms", "lower"},
		metricDef{"dist.worker_imbalance", "ratio", "lower"},
		metricDef{"dist.fleet_over_local", "ratio", "lower"},
		metricDef{"paper.gap_pp", "pp", "lower"},
		metricDef{"runtime.gc_cpu_frac", "frac", "lower"},
		metricDef{"runtime.alloc_gb", "GB", "lower"},
		metricDef{"trace.coverage", "frac", "higher"},
		metricDef{"trace.overhead", "frac", "lower"},
		metricDef{"host.op_p50_ms", "ms", "lower"},
		metricDef{"host.ops_per_s", "1/s", "higher"},
		metricDef{"host.probe_ms", "ms", "lower"},
	)
}

// acc accumulates a traced run's counters (sums) and per-call
// measurements (samples) beside its spans. Safe for concurrent use.
type acc struct {
	mu      sync.Mutex
	sums    map[string]float64
	samples map[string][]float64
}

func newAcc() *acc {
	return &acc{sums: make(map[string]float64), samples: make(map[string][]float64)}
}

func (a *acc) add(name string, v float64) {
	a.mu.Lock()
	a.sums[name] += v
	a.mu.Unlock()
}

func (a *acc) set(name string, v float64) {
	a.mu.Lock()
	a.sums[name] = v
	a.mu.Unlock()
}

func (a *acc) sample(name string, v float64) {
	a.mu.Lock()
	a.samples[name] = append(a.samples[name], v)
	a.mu.Unlock()
}

func (a *acc) get(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sums[name]
}

// q returns the q-quantile of a sample, 0 when nothing was sampled.
func (a *acc) q(name string, q float64) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return finite(quantile(a.samples[name], q))
}

// Unit counters the per-operation metrics divide by.
const (
	nPlans       = "plans"       // plan executions: a paper run, a served suite, a fleet plan's local replica
	nSubmissions = "submissions" // suite submissions over HTTP
	nFleetRuns   = "fleet_runs"  // dist.Run rounds
	capacityS    = "capacity_s"  // Σ traced operation wall × its slots
	poolCapS     = "pool_capacity_s"
)

// layerValues derives every per-layer metric of a traced run from its
// spans and counters. Work counts and times are per unit of the layer's
// work (per plan execution, per submission, per fleet run), so runs of
// different length compare.
func layerValues(st spanStats, a *acc) map[string]float64 {
	per := func(v float64, unit string) float64 { return ratio(v, a.get(unit)) }
	secs := func(name string) float64 { return st.total(name).Seconds() }
	m := make(map[string]float64)
	leaf := st.leaf.Seconds()
	for _, mk := range modelKeys {
		sim := secs(mk.key + ".sim")
		m[mk.key+".sim_s"] = per(sim, nPlans)
		m[mk.key+".sims"] = per(float64(st.count(mk.key+".sim")), nPlans)
		m[mk.key+".minst_per_s"] = ratio(a.get(mk.key+".insts")/1e6, sim)
		m[mk.key+".share"] = ratio(sim, leaf)
	}
	gen := secs("workload.generate")
	m["workload.generate_s"] = per(gen, nPlans)
	m["workload.traces"] = per(float64(st.count("workload.generate")), nPlans)
	m["workload.minst_per_s"] = ratio(a.get("workload.insts")/1e6, gen)
	m["pipeline.warmstate_s"] = per(secs("pipeline.warmstate"), nPlans)
	m["pipeline.warm_points"] = per(float64(st.count("pipeline.warmstate")), nPlans)
	m["exp.jobs"] = per(a.get("exp.jobs"), nPlans)
	m["exp.plan_keys"] = per(a.get("exp.plan_keys"), nPlans)
	m["exp.dedup_ratio"] = ratio(a.get("exp.jobs"), a.get("exp.plan_keys"))
	if c := a.get(poolCapS); c > 0 {
		m["exp.pool_idle_frac"] = 1 - secs("exp.job")/c
	}
	m["spec.decode_us"] = a.q("spec.decode_us", 0.5)
	m["registry.describe_ms"] = per(1000*secs("registry.describe"), nPlans)
	m["registry.render_ms"] = per(1000*secs("registry.render"), nPlans)
	m["store.get_us_p50"] = a.q("store.get_us", 0.5)
	m["store.get_us_p99"] = a.q("store.get_us", 0.99)
	m["store.hits"] = per(a.get("store.hits"), nSubmissions)
	m["serve.plan_ms_p50"] = a.q("serve.plan_ms", 0.5)
	m["serve.render_ms_p50"] = a.q("serve.render_ms", 0.5)
	m["serve.store_hit_ratio"] = ratio(a.get("store.hits"), a.get("serve.jobs"))
	m["serve.hit_p99_ms"] = a.q("serve.hit_ms", 0.99)
	m["store.put_us_p50"] = a.q("store.put_us", 0.5)
	m["store.put_us_p99"] = a.q("store.put_us", 0.99)
	m["store.misses"] = per(a.get("store.misses"), nSubmissions)
	m["store.puts"] = per(float64(st.count("store.put")), nSubmissions)
	m["store.mb"] = a.get("store.bytes") / 1e6
	m["serve.miss_sim_ms_p50"] = a.q("serve.miss_sim_ms", 0.5)
	m["serve.miss_p90_ms"] = a.q("serve.miss_ms", 0.9)
	m["serve.dispatched"] = per(a.get("serve.dispatched"), nSubmissions)
	m["serve.heap_mb"] = a.get("serve.heap_bytes") / 1e6
	m["dist.batches"] = per(a.get("dist.batches"), nFleetRuns)
	m["dist.requeued"] = per(a.get("dist.requeued"), nFleetRuns)
	m["dist.wire_mb"] = per(a.get("dist.wire_bytes")/1e6, nFleetRuns)
	m["dist.merge_gap_ms_p50"] = a.q("dist.merge_gap_ms", 0.5)
	m["dist.worker_imbalance"] = a.q("dist.imbalance", 0.5)
	m["dist.fleet_over_local"] = ratio(a.q("dist.fleet_s", 0.5), a.get("dist.local_s"))
	m["paper.gap_pp"] = a.get("paper.gap_pp")
	m["trace.coverage"] = ratio(leaf, a.get(capacityS))
	return m
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return finite(num / den)
}

// finite maps NaN and ±Inf to 0: JSON has no encoding for them, and a
// metric with no samples reads 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
