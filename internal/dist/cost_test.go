package dist

import (
	"testing"

	"icfp/internal/exp"
	"icfp/internal/spec"
)

// costJob builds a SPEC job whose static cost is controlled by its
// instruction count and model.
func costJob(model string, n int) (spec.Job, exp.Key) {
	sj := spec.Job{Machine: spec.Machine{Model: model}, Workload: spec.SPECWorkload("mcf", n)}
	return sj, exp.KeyOf(sj)
}

func TestStaticCostRanksModelsAndLengths(t *testing.T) {
	cheapJob, _ := costJob(spec.ModelInOrder, 10_000)
	halfJob, _ := costJob(spec.ModelICFP, 10_000)
	fullJob, _ := costJob(spec.ModelICFP, 20_000)
	if !(staticCost(cheapJob) < staticCost(halfJob) && staticCost(halfJob) < staticCost(fullJob)) {
		t.Errorf("static cost ordering broken: inorder/10k=%v icfp/10k=%v icfp/20k=%v",
			staticCost(cheapJob), staticCost(halfJob), staticCost(fullJob))
	}
	// The fig6-style half-sample relation the ISSUE motivates: same
	// machine at half the workload length estimates about half the cost.
	if r := staticCost(fullJob) / staticCost(halfJob); r < 1.9 || r > 2.1 {
		t.Errorf("half-sample cost ratio = %v, want ~2", r)
	}
	scenario := spec.Job{Machine: spec.Machine{Model: spec.ModelICFP}, Workload: spec.ScenarioWorkload("a-lone-l2")}
	if staticCost(scenario) >= staticCost(cheapJob) {
		t.Errorf("scenario cost %v should rank far below any SPEC sample (%v)", staticCost(scenario), staticCost(cheapJob))
	}
}

func TestCostModelObservationsOverrideAndCalibrate(t *testing.T) {
	m := newCostModel()
	sj1, k1 := costJob(spec.ModelICFP, 10_000)
	sj2, k2 := costJob(spec.ModelICFP, 20_000)
	m.admit(sj1, k1)
	m.admit(sj2, k2)

	// Before any observation, estimates are the static seeds.
	if e1, e2 := m.estimate(k1), m.estimate(k2); e1 >= e2 {
		t.Fatalf("pre-observation estimates not ordered: %v >= %v", e1, e2)
	}
	// An observed key reports its measurement exactly.
	m.observe(k1, 5e6)
	if got := m.estimate(k1); got != 5e6 {
		t.Errorf("observed key estimate = %v, want the measurement 5e6", got)
	}
	// The observation calibrates unmeasured keys too: k2's static cost
	// is 2× k1's, so its estimate lands near 2× k1's measured time.
	if got := m.estimate(k2); got < 0.5*1e7 || got > 2*1e7 {
		t.Errorf("calibrated estimate for unmeasured key = %v, want ≈1e7", got)
	}
	// Re-observing a key (it arrives both on its result frame and in the
	// batch cost report) refreshes its own estimate but must not fold
	// into the calibration ratio again.
	before := m.ratio
	m.observe(k1, 6e6)
	if got := m.estimate(k1); got != 6e6 {
		t.Errorf("re-observed key estimate = %v, want the fresh measurement 6e6", got)
	}
	if m.ratio != before {
		t.Errorf("re-observation moved the calibration ratio %v -> %v; repeats must not double-weight", before, m.ratio)
	}
}

// TestCostAwareBatchSizing pins the dispatch-time sizing behaviour the
// tentpole names: cheap keys ride in larger batches, a known-expensive
// straggler ships alone (once the pool-width floor is met).
func TestCostAwareBatchSizing(t *testing.T) {
	d := &dispatcher{model: newCostModel(), opts: &Options{Parallel: 1}}
	d.active = 1

	// One straggler at the head, then a tail of cheap keys.
	straggler, sk := costJob(spec.ModelOOO, 1_000_000)
	d.model.admit(straggler, sk)
	d.model.observe(sk, 1e9)
	d.ready = append(d.ready, &pjob{sj: straggler, key: sk})
	for i := 0; i < 12; i++ {
		sj, k := costJob(spec.ModelInOrder, 1_000+i) // distinct cheap keys
		d.model.admit(sj, k)
		d.model.observe(k, 1e6)
		d.ready = append(d.ready, &pjob{sj: sj, key: k})
	}

	first := d.takeBatchLocked("w")
	if len(first) != 1 || first[0].key != sk {
		t.Fatalf("first batch = %d jobs, want the straggler alone", len(first))
	}
	second := d.takeBatchLocked("w")
	if len(second) < 2 {
		t.Errorf("cheap keys batched %d at a time, want them grouped", len(second))
	}

	// A fixed BatchSize bypasses the model entirely.
	d.opts.BatchSize = 5
	fixed := d.takeBatchLocked("w")
	if len(fixed) != 5 {
		t.Errorf("fixed BatchSize batch = %d jobs, want exactly 5", len(fixed))
	}
}

// TestBatchFloorKeepsPoolsBusy pins the sizing floor: with a wide worker
// pool, a batch never starves it below one job per pool slot while jobs
// remain.
func TestBatchFloorKeepsPoolsBusy(t *testing.T) {
	d := &dispatcher{model: newCostModel(), opts: &Options{Parallel: 8}}
	d.active = 4 // several workers competing shrinks the cost budget
	for i := 0; i < 32; i++ {
		sj, k := costJob(spec.ModelInOrder, 1_000+i)
		d.model.admit(sj, k)
		d.ready = append(d.ready, &pjob{sj: sj, key: k})
	}
	if got := len(d.takeBatchLocked("w")); got < 8 {
		t.Errorf("batch of %d jobs starves an 8-wide pool", got)
	}
}

// TestSeedFromCacheUsesSnapshotTimings pins the -store interplay:
// elapsed times preserved in store records pre-seed the model, so a rerun
// opens with measured costs instead of static guesses.
func TestSeedFromCacheUsesSnapshotTimings(t *testing.T) {
	sj, k := costJob(spec.ModelICFP, 10_000)
	cache := exp.NewCache()
	cache.AddResults([]exp.CachedResult{{Machine: k.Machine, Workload: k.Workload, ElapsedNS: 7e6}})

	m := newCostModel()
	m.seedFromCache(cache, []spec.Job{sj})
	if got := m.estimate(k); got != 7e6 {
		t.Errorf("estimate after snapshot seeding = %v, want the recorded 7e6", got)
	}
}

// TestPerWorkerSpeedSizesBatches pins the heterogeneous-fleet satellite:
// once a worker's own wall times diverge from the fleet-average
// calibration, its batches scale with its measured relative speed — a
// 2×-speed synthetic worker takes visibly more of the queue per steal
// than a ½×-speed one, instead of both receiving the fleet-average
// batch.
func TestPerWorkerSpeedSizesBatches(t *testing.T) {
	m := newCostModel()

	// Calibrate the fleet average at 100 ns per static unit, on keys
	// disjoint from the ready queue (cost reports from finished batches).
	for i := 0; i < 8; i++ {
		sj, k := costJob(spec.ModelInOrder, 10_000+i)
		m.admit(sj, k)
		m.observe(k, float64(10_000+i)*100)
	}
	// The fast host finishes identical work in half the fleet-average
	// time; the slow host takes double. Several keys each, so the EWMA
	// converges near the true per-worker rate.
	for i := 0; i < 8; i++ {
		sj, k := costJob(spec.ModelRunahead, 20_000+i)
		m.admit(sj, k)
		m.observe(k, float64(staticCost(sj))*100)
		m.observeWorker("fast", k, float64(staticCost(sj))*50)
	}
	for i := 0; i < 8; i++ {
		sj, k := costJob(spec.ModelSLTP, 30_000+i)
		m.admit(sj, k)
		m.observe(k, float64(staticCost(sj))*100)
		m.observeWorker("slow", k, float64(staticCost(sj))*200)
	}

	if s := m.speed("fast"); s < 1.5 || s > 2.5 {
		t.Errorf("fast worker speed = %v, want ≈2", s)
	}
	if s := m.speed("slow"); s < 0.35 || s > 0.65 {
		t.Errorf("slow worker speed = %v, want ≈0.5", s)
	}
	if s := m.speed("unmeasured"); s != 1 {
		t.Errorf("unmeasured worker speed = %v, want exactly 1", s)
	}

	// One shared ready queue of unmeasured keys: the fast worker's steal
	// must be decisively larger than the slow worker's.
	ready := make([]*pjob, 0, 40)
	for i := 0; i < 40; i++ {
		sj, k := costJob(spec.ModelICFP, 40_000+i)
		m.admit(sj, k)
		ready = append(ready, &pjob{sj: sj, key: k})
	}
	const workers, floor = 2, 1
	fast := m.sizeBatch(ready, "fast", workers, floor, maxBatchJobs)
	slow := m.sizeBatch(ready, "slow", workers, floor, maxBatchJobs)
	if fast < 3*slow {
		t.Errorf("2×-speed worker takes %d jobs vs the ½×-speed worker's %d; want ≥3× (speed must shape the budget)", fast, slow)
	}
	if unk := m.sizeBatch(ready, "unmeasured", workers, floor, maxBatchJobs); unk <= slow || unk >= fast {
		t.Errorf("unmeasured worker takes %d jobs, want between slow (%d) and fast (%d)", unk, slow, fast)
	}
}

// TestWorkerSpeedClamped pins the guard rail: one wild measurement
// cannot push a worker's speed outside [1/4, 4].
func TestWorkerSpeedClamped(t *testing.T) {
	m := newCostModel()
	sj, k := costJob(spec.ModelInOrder, 10_000)
	m.admit(sj, k)
	m.observe(k, 1e6)
	sj2, k2 := costJob(spec.ModelInOrder, 10_001)
	m.admit(sj2, k2)
	m.observeWorker("glacial", k2, 1e12) // absurdly slow single sample
	if s := m.speed("glacial"); s != 0.25 {
		t.Errorf("glacial worker speed = %v, want clamped to 0.25", s)
	}
	sj3, k3 := costJob(spec.ModelInOrder, 10_002)
	m.admit(sj3, k3)
	m.observeWorker("warp", k3, 1) // absurdly fast single sample
	if s := m.speed("warp"); s != 4 {
		t.Errorf("warp worker speed = %v, want clamped to 4", s)
	}
}
