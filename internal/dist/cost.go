package dist

import (
	"sync"

	"icfp/internal/exp"
	"icfp/internal/spec"
)

// Relative simulation weight per machine model: roughly how many units
// of work one simulated instruction costs on each micro-architecture,
// normalized to the in-order baseline. The numbers only need to rank the
// models sensibly — the model calibrates the absolute scale online from
// observed wall times, and a key that has actually been measured uses
// its measurement directly.
var modelWeights = map[string]float64{
	spec.ModelInOrder:   1.0,
	spec.ModelRunahead:  1.7,
	spec.ModelMultipass: 2.3,
	spec.ModelSLTP:      1.9,
	spec.ModelICFP:      2.6,
	spec.ModelOOO:       3.0,
}

// scenarioCost stands in for a workload length when the workload is a
// Figure 1 micro-scenario: their traces are tens of instructions, so any
// small constant ranks them far below every SPEC sample.
const scenarioCost = 64

// staticCost is the spec-derived estimate of one job's simulation cost,
// in abstract units: workload length × model class weight. It is the
// seed the cost model starts from before any wall time has been
// observed.
func staticCost(sj spec.Job) float64 {
	insts := float64(sj.Workload.N)
	if sj.Workload.Scenario != "" {
		insts = scenarioCost
	}
	w, ok := modelWeights[sj.Machine.Model]
	if !ok {
		w = 2.0 // unknown model: assume mid-pack rather than free
	}
	return insts * w
}

// costModel estimates per-key simulation cost for dispatch-time batch
// sizing. Every key starts from its static spec-derived estimate; each
// observed wall time (a worker's cost report, or an elapsed time
// recorded in a result store) replaces the estimate for that
// key exactly and refines a global static→wall-clock calibration ratio
// for the keys not yet measured. The model only shapes batches — it
// never decides what runs, so a wildly wrong estimate costs efficiency,
// not correctness.
type costModel struct {
	mu       sync.Mutex
	static   map[exp.Key]float64 // spec-derived units, filled at plan time
	observed map[exp.Key]float64 // wall ns, exact once measured
	ratio    float64             // EWMA of observed-ns / static-units
	measured bool                // at least one observation folded into ratio
	workers  map[string]*workerRate
}

// workerRate is one worker's private static→wall-clock calibration: the
// same EWMA the global ratio runs, but fed only by wall times this
// worker reported. The quotient global/worker is the worker's relative
// speed — a host twice as fast as the fleet average burns nanoseconds at
// half the fleet rate — which is what lets heterogeneous hosts get
// correctly sized batches instead of the fleet-average batch.
type workerRate struct {
	ratio    float64
	measured bool
	seen     map[exp.Key]bool // each key feeds this worker's EWMA once
}

func newCostModel() *costModel {
	return &costModel{
		static:   make(map[exp.Key]float64),
		observed: make(map[exp.Key]float64),
		ratio:    1,
		workers:  make(map[string]*workerRate),
	}
}

// admit registers a plan job's static estimate.
func (c *costModel) admit(sj spec.Job, k exp.Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.static[k]; !ok {
		c.static[k] = staticCost(sj)
	}
}

// observe folds one measured wall time into the model. A key's first
// measurement feeds the calibration ratio; repeats (the same key arrives
// both on its result frame and in the batch cost report) only refresh
// that key's own estimate, so no key is double-weighted in the EWMA.
func (c *costModel) observe(k exp.Key, ns float64) {
	if ns <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, seen := c.observed[k]
	c.observed[k] = ns
	if s := c.static[k]; s > 0 && !seen {
		r := ns / s
		if !c.measured {
			c.ratio, c.measured = r, true
		} else {
			c.ratio = 0.75*c.ratio + 0.25*r
		}
	}
}

// observeWorker attributes one measured wall time to the worker that
// produced it, feeding that worker's private calibration EWMA. Like the
// global ratio, each key is folded at most once per worker (result frame
// and batch cost report both carry it). Unattributed observations —
// store-record seeds — never reach here, so a worker's ratio reflects
// only its own hardware.
func (c *costModel) observeWorker(worker string, k exp.Key, ns float64) {
	if ns <= 0 || worker == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.static[k]
	if s <= 0 {
		return
	}
	w := c.workers[worker]
	if w == nil {
		w = &workerRate{ratio: 1, seen: make(map[exp.Key]bool)}
		c.workers[worker] = w
	}
	if w.seen[k] {
		return
	}
	w.seen[k] = true
	r := ns / s
	if !w.measured {
		w.ratio, w.measured = r, true
	} else {
		w.ratio = 0.75*w.ratio + 0.25*r
	}
}

// speedLocked returns a worker's relative throughput: global ns-per-unit
// over the worker's own ns-per-unit, so 2 means "twice the fleet-average
// speed". 1 until both sides have been measured; clamped to [1/4, 4] so
// one noisy first measurement cannot starve or flood a host.
func (c *costModel) speedLocked(worker string) float64 {
	w := c.workers[worker]
	if w == nil || !w.measured || !c.measured || w.ratio <= 0 {
		return 1
	}
	s := c.ratio / w.ratio
	return min(max(s, 0.25), 4)
}

// speed is the self-locking variant, the dist_worker_speed gauge.
func (c *costModel) speed(worker string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.speedLocked(worker)
}

// calibration returns the current static-units → wall-ns EWMA ratio,
// the dist_cost_model_ratio gauge (1 until the first observation).
func (c *costModel) calibration() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ratio
}

// estimate returns the key's current cost estimate in wall nanoseconds
// (calibrated units before the first observation — consistent across
// keys, which is all batch sizing needs).
func (c *costModel) estimate(k exp.Key) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.estimateLocked(k)
}

func (c *costModel) estimateLocked(k exp.Key) float64 {
	if ns, ok := c.observed[k]; ok {
		return ns
	}
	return c.static[k] * c.ratio
}

// seedFromCache folds the elapsed times preloaded cache entries (store
// hits) recorded for this plan's keys into the model, so a rerun sizes
// its batches from real measurements immediately. Cache entries outside
// the plan are ignored: their static costs are unknown here, so they
// could not calibrate the ratio anyway.
func (c *costModel) seedFromCache(cache *exp.Cache, plan []spec.Job) {
	for _, sj := range plan {
		k := exp.KeyOf(sj)
		c.admit(sj, k)
		if d, ok := cache.Elapsed(k); ok && d > 0 {
			c.observe(k, float64(d))
		}
	}
}

// sizeBatch decides how many jobs from the head of the ready queue the
// next batch takes, under one model lock for the whole decision. The
// cost budget is an even share of the queue's remaining estimated cost
// per active worker, divided again by stealSlack so each worker's share
// is split into several steals — the slack is what lets a fast worker
// pick up a slow one's leftovers — and scaled by the receiving worker's
// measured relative speed, so a host twice as fast as the fleet average
// takes roughly twice the batch instead of idling between steals. The
// floor keeps the receiving pool saturated by its own batch; maxJobs
// keeps even a queue of near-free keys stealable in bounded pieces. At
// least one job is always taken.
func (c *costModel) sizeBatch(ready []*pjob, worker string, activeWorkers, floor, maxJobs int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var queueCost float64
	for _, pj := range ready {
		queueCost += c.estimateLocked(pj.key)
	}
	if activeWorkers < 1 {
		activeWorkers = 1
	}
	budget := queueCost * c.speedLocked(worker) / (float64(activeWorkers) * stealSlack)
	var cost float64
	take := 0
	for take < len(ready) && take < maxJobs {
		e := c.estimateLocked(ready[take].key)
		if take >= floor && cost+e > budget {
			break
		}
		cost += e
		take++
	}
	return max(take, 1)
}

// stealSlack is how many batches each active worker's fair share of the
// remaining work is split into. Higher values mean finer steals (better
// balance, more protocol round trips).
const stealSlack = 4
