package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// poolSlots is the parallelism of every simulation pool the benchmark
// runs, and the GOMAXPROCS of every child: the load comes from one
// process with at most two threads.
const poolSlots = 2

// goldenPath is the committed tiny -all golden, relative to the repo root.
var goldenPath = filepath.Join("cmd", "experiments", "testdata", "golden_all_tiny.txt")

// goldenN and goldenWarm are the sample sizes the golden was rendered at.
const goldenN, goldenWarm = 2000, 1000

// sizes are the input sizes of the workloads. The full sizes keep one
// operation under a second on a 2-core host, so an 18-second run holds a
// dozen or more, and peak RSS near a GB or less; smoke sizes make the
// test suite quick.
type sizes struct {
	paperN, paperWarm     int // paper-all: -all at these -n/-warm
	sampledN, sampledWarm int // paper-sampled: -fig5s at these -n/-warm (fig5s runs 25x n)
	missN, missWarm       int // serve-mixed: fresh fuzz suites (warm below n: see missSuite)
	fleetN, fleetWarm     int // fleet: the fuzz corpus at these -n/-warm
}

var fullSizes = sizes{
	paperN: 20_000, paperWarm: 7_500, // 1/20 of the -all defaults, same warm:n ratio
	sampledN: 8_000, sampledWarm: 30_000, // 230k-instruction traces
	missN: 12_500, missWarm: 5_000,
	fleetN: 25_000, fleetWarm: 10_000,
}

var smokeSizes = sizes{
	paperN: goldenN, paperWarm: goldenWarm,
	sampledN: 400, sampledWarm: 1_000,
	missN: 3_000, missWarm: 1_000,
	fleetN: 2_000, fleetWarm: 1_000,
}

// params returns registry parameters at the given sample sizes.
func params(n, warm int) registry.Params {
	p := registry.Params{Cfg: sim.DefaultConfig(), N: n}
	p.Cfg.WarmupInsts = warm
	return p
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name    string
	why     string
	clients int // closed-loop clients issuing operations concurrently
	batch   int // operations per client per round (see childMain)
	// nominal is a round's wall time at full size on the reference host
	// (a shared 2-core Xeon VM, probe at 17 ms); a child runs as many
	// rounds as fill its budget at that pace.
	nominal time.Duration
	// coldHeap starts every round from a collected heap, for workloads
	// whose operation stands for a fresh process.
	coldHeap bool
	// storeFixture makes the parent build the golden store fixture the
	// workload's children start from (buildStoreFixture).
	storeFixture bool
	setup        func(c childConfig, tr *tracer) (instance, error)
}

// instance is a workload set up inside a child process.
type instance interface {
	// op runs one untraced operation for client c (its i-th).
	op(c, i int) opResult
	// tracedOp runs the same operation with every layer call timed
	// under s, recording counters into the instance's acc.
	tracedOp(s scope, c, i int) opResult
	// finish runs the checks that happen after the measured window and
	// returns one message per failed operation.
	finish() []string
	// acc returns the traced run's counters.
	acc() *acc
	close()
}

// opResult is one operation's outcome.
type opResult struct {
	kind   string // "run", "hit" or "miss"
	digest string // sha256 of the rendered output, for cross-run checks ("" = checked in place)
	err    error  // a failed operation
	// traced is the wall time of the traced counterpart of the untraced
	// operation, the numerator of trace.overhead.
	traced time.Duration
}

var workloads = []workloadDef{
	{
		name:     "paper-all",
		why:      "experiments -all cold at 1/20 of its default size: detailed simulation dominates, iCFP above all",
		clients:  1,
		batch:    1,
		nominal:  time.Second,
		coldHeap: true,
		setup:    func(c childConfig, _ *tracer) (instance, error) { return newPaper(c, false) },
	},
	{
		name:     "paper-sampled",
		why:      "fig5s interval sampling: trace generation and functional warming dominate, the memory-bound run",
		clients:  1,
		batch:    1,
		nominal:  860 * time.Millisecond,
		coldHeap: true,
		setup:    func(c childConfig, _ *tracer) (instance, error) { return newPaper(c, true) },
	},
	{
		name:         "serve-hits",
		why:          "expq read path: golden suites answered from the store over loopback HTTP, no simulation",
		clients:      2,
		batch:        20,
		nominal:      180 * time.Millisecond,
		storeFixture: true,
		setup:        func(c childConfig, tr *tracer) (instance, error) { return newServe(c, false, tr) },
	},
	{
		name:         "serve-mixed",
		why:          "expq write path beside reads: every 10th submission is a fresh fuzz suite that misses, simulates and is stored",
		clients:      2,
		batch:        20,
		nominal:      220 * time.Millisecond,
		storeFixture: true,
		setup:        func(c childConfig, tr *tracer) (instance, error) { return newServe(c, true, tr) },
	},
	{
		name:     "fleet",
		why:      "the fuzz corpus through dist over two elastic loopback workers: the only workload for dist framing and batching",
		clients:  1,
		batch:    1,
		nominal:  550 * time.Millisecond,
		coldHeap: true,
		setup:    newFleet,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenSet is the -all selection at golden scale, rendered and checked
// against the committed golden: the suites, their submission documents,
// each suite's expected bytes, and the cache of every simulation.
type goldenSet struct {
	suites []spec.Suite
	docs   [][]byte
	want   [][]byte
	cache  *exp.Cache
}

// renderGolden renders -all at golden scale on a 2-way pool and checks it
// byte for byte against the committed golden, then slices the golden into
// each experiment's expected report (the per-suite renders, which must
// concatenate back to the golden).
func renderGolden(root string) (*goldenSet, error) {
	golden, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("reading the -all golden: %w", err)
	}
	p := params(goldenN, goldenWarm)
	g := &goldenSet{cache: exp.NewCache()}
	var all bytes.Buffer
	if _, err := registry.Report(&all, registry.DefaultNames(), p, exp.Parallelism(poolSlots), exp.WithCache(g.cache)); err != nil {
		return nil, fmt.Errorf("rendering -all at golden scale: %w", err)
	}
	if !bytes.Equal(all.Bytes(), golden) {
		return nil, fmt.Errorf("-all at golden scale differs from %s", goldenPath)
	}
	var joined bytes.Buffer
	for _, name := range registry.DefaultNames() {
		s, err := registry.Describe(name, p)
		if err != nil {
			return nil, err
		}
		doc, err := s.Marshal()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := registry.ReportSuite(&buf, s, exp.WithCache(g.cache), exp.Parallelism(1)); err != nil {
			return nil, fmt.Errorf("rendering suite %s: %w", name, err)
		}
		joined.Write(buf.Bytes())
		g.suites = append(g.suites, s)
		g.docs = append(g.docs, doc)
		g.want = append(g.want, buf.Bytes())
	}
	if !bytes.Equal(joined.Bytes(), golden) {
		return nil, fmt.Errorf("per-suite renders do not concatenate to %s", goldenPath)
	}
	return g, nil
}

// paperInst runs the paper's evaluation cold: fresh cache and arena on
// every operation, as a user's experiments invocation is.
type paperInst struct {
	names []string
	p     registry.Params
	sizes sizes
	a     *acc
}

func newPaper(c childConfig, sampled bool) (*paperInst, error) {
	// The golden check is the set-up: the build must reproduce the
	// committed -all report before its speed means anything.
	if _, err := renderGolden(c.Root); err != nil {
		return nil, err
	}
	sz := c.sizes()
	pi := &paperInst{names: registry.DefaultNames(), p: params(sz.paperN, sz.paperWarm), sizes: sz, a: newAcc()}
	if sampled {
		pi.names = []string{"fig5s"}
		pi.p = params(sz.sampledN, sz.sampledWarm)
	}
	return pi, nil
}

func (pi *paperInst) op(int, int) opResult {
	var buf bytes.Buffer
	if _, err := registry.Report(&buf, pi.names, pi.p, exp.Parallelism(poolSlots)); err != nil {
		return opResult{kind: "run", err: err}
	}
	return opResult{kind: "run", digest: sha(buf.Bytes())}
}

func (pi *paperInst) tracedOp(s scope, _, _ int) opResult {
	out, wall, err := tracedPlan(s, pi.names, pi.p, pi.a)
	if err != nil {
		return opResult{kind: "run", err: err}
	}
	gap, err := paperGap(out)
	if err != nil {
		return opResult{kind: "run", err: err}
	}
	pi.a.set("paper.gap_pp", gap) // deterministic: the same on every run
	return opResult{kind: "run", digest: sha(out), traced: wall}
}

func (pi *paperInst) finish() []string { return nil }
func (pi *paperInst) acc() *acc        { return pi.a }
func (pi *paperInst) close()           {}

// publishedGeomeans are the paper's Figure 5 SPEC geomean speedups, in
// the column order Runahead, Multipass, SLTP, iCFP.
var publishedGeomeans = []float64{11, 11, 9, 16}

// paperGap returns the mean absolute difference, in percentage points,
// between the rendered Figure 5 SPEC geomean row (fig5 or fig5s) and the
// published geomeans.
func paperGap(out []byte) (float64, error) {
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || f[0] != "SPEC" || f[5] != "(geomean)" {
			continue
		}
		sum := 0.0
		for i, pub := range publishedGeomeans {
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[1+i], "%"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing Figure 5 geomean %q: %w", f[1+i], err)
			}
			sum += abs(v - pub)
		}
		return sum / float64(len(publishedGeomeans)), nil
	}
	return 0, errors.New("no Figure 5 SPEC geomean row in the report")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// tracedPlan drives a selection's plan itself, timing each layer call:
// registry.Describe, exp.Plan, then on a 2-goroutine pool exp.Arena.Get
// (workload generation), pipeline.WarmState for each window start, and
// the core model's Run or RunSampled; then exp.Cache.AddResults and
// registry.ReportSuite. It returns the concatenated reports — which must
// equal an untraced registry.Report of the same selection — and the wall
// time.
func tracedPlan(s scope, names []string, p registry.Params, a *acc) ([]byte, time.Duration, error) {
	start := time.Now()
	var suites []spec.Suite
	var err error
	s.do("registry.describe", func(scope) {
		for _, name := range names {
			var su spec.Suite
			if su, err = registry.Describe(name, p); err != nil {
				return
			}
			suites = append(suites, su)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	var jobs []exp.Job
	for _, su := range suites {
		jobs = append(jobs, suiteJobs(su)...)
	}
	var plan []spec.Job
	s.do("exp.plan", func(scope) { plan, err = exp.Plan(jobs) })
	if err != nil {
		return nil, 0, err
	}
	a.add(nPlans, 1)
	a.add("exp.jobs", float64(len(jobs)))
	a.add("exp.plan_keys", float64(len(plan)))

	rp := &replicaPool{arena: exp.NewArena(), gens: make(map[string]chan struct{}), warmed: make(map[string]bool)}
	results := make([]exp.CachedResult, len(plan))
	errs := make([]error, poolSlots)
	pool := s.do("exp.pool", func(ps scope) {
		work := make(chan int)
		var wg sync.WaitGroup
		for slot := range poolSlots {
			wg.Add(1)
			go func(js scope) {
				defer wg.Done()
				for i := range work {
					if errs[slot] == nil {
						js.do("exp.job", func(js scope) { results[i], errs[slot] = rp.simulate(js, plan[i], a) })
					}
				}
			}(ps.onSlot(slot))
		}
		for i := range plan {
			work <- i
		}
		close(work)
		wg.Wait()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	a.add(poolCapS, pool.dur().Seconds()*poolSlots)

	cache := exp.NewCache()
	s.do("exp.cache_fill", func(scope) { cache.AddResults(results) })
	var out bytes.Buffer
	s.do("registry.render", func(scope) {
		for _, su := range suites {
			if _, err = registry.ReportSuite(&out, su, exp.WithCache(cache), exp.Parallelism(1)); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	if n := cache.Simulations(); n != 0 {
		return nil, 0, fmt.Errorf("rendering from the filled cache simulated %d jobs", n)
	}
	wall := time.Since(start)
	a.add(capacityS, wall.Seconds()*poolSlots)
	return out.Bytes(), wall, nil
}

// suiteJobs converts a suite's declarative jobs into harness jobs.
func suiteJobs(s spec.Suite) []exp.Job {
	jobs := make([]exp.Job, len(s.Jobs))
	for i, j := range s.Jobs {
		jobs[i] = exp.Job{Name: j.Name, Machine: j.Machine, Workload: j.Workload}
	}
	return jobs
}

// replicaPool is the shared state of one traced plan execution: the
// arena, which workload generations are claimed, and which warm-state
// points are built.
type replicaPool struct {
	arena  *exp.Arena
	mu     sync.Mutex
	gens   map[string]chan struct{} // base workload → closed once generated
	warmed map[string]bool          // (workload, hierarchy+predictor config, start)
}

// simulate runs one plan entry the way exp.Run does, with a span around
// each layer call.
func (rp *replicaPool) simulate(s scope, sj spec.Job, a *acc) (exp.CachedResult, error) {
	base := sj.Workload.Base().Canonical()
	rp.mu.Lock()
	done, claimed := rp.gens[base]
	if !claimed {
		done = make(chan struct{})
		rp.gens[base] = done
	}
	rp.mu.Unlock()
	var wk *workload.Workload
	if !claimed {
		s.do("workload.generate", func(scope) { wk = rp.arena.Get(sj.Workload) })
		a.add("workload.insts", float64(wk.Trace.Len()))
		close(done)
	} else {
		s.do("exp.arena_wait", func(scope) {
			<-done
			wk = rp.arena.Get(sj.Workload)
		})
	}

	cfg, err := sj.Machine.Config()
	if err != nil {
		return exp.CachedResult{}, err
	}
	live := sj.Workload.Sampling.Live()
	var pol pipeline.SamplePolicy
	if live {
		pol = sj.Workload.Sampling.Policy()
	}
	hk, err := json.Marshal([]any{cfg.Hier, cfg.Bpred})
	if err != nil {
		return exp.CachedResult{}, err
	}
	n := wk.Trace.Len()
	for _, win := range pol.Windows(min(cfg.WarmupInsts, n), n) {
		start := max(win.Start-pol.Ramp, 0)
		key := base + "|" + string(hk) + "|" + strconv.Itoa(start)
		rp.mu.Lock()
		fresh := !rp.warmed[key]
		rp.warmed[key] = true
		rp.mu.Unlock()
		if fresh {
			s.do("pipeline.warmstate", func(scope) { pipeline.WarmState(wk, cfg.Hier, cfg.Bpred, start) })
		}
	}

	var res pipeline.Result
	model := modelKey(sj.Machine.Model)
	s.do(model+".sim", func(scope) {
		var r spec.Runner
		if r, err = sj.Machine.New(); err != nil {
			return
		}
		if live {
			res = r.(spec.SampledRunner).RunSampled(wk, pol)
		} else {
			res = r.Run(wk)
		}
	})
	if err != nil {
		return exp.CachedResult{}, err
	}
	a.add(model+".insts", float64(res.Insts))
	k := exp.KeyOf(sj)
	return exp.CachedResult{Machine: k.Machine, Workload: k.Workload, R: res}, nil
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// mix derives a distinct 63-bit value from a seed and indexes
// (splitmix64 finalizer over a running combination).
func mix(seed int64, xs ...int) int64 {
	z := uint64(seed)
	for _, x := range xs {
		z += uint64(x) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}
