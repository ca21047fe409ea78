package exp

// Engine tests that need synthetic runners (canned results, controlled
// blocking) swap the package's constructor hook; everything observable
// through the public API is tested black-box in exp_test.go instead.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// stubs maps job keys to synthetic runners. Jobs without a stub fall
// back to the real constructor, so one install covers mixed sets.
type stubs struct {
	mu    sync.Mutex
	byKey map[Key]Runner
}

// install routes the engine's constructor through the stub table for the
// duration of the test.
func (s *stubs) install(t *testing.T) {
	t.Helper()
	old := newRunner
	newRunner = func(j Job) (Runner, error) {
		s.mu.Lock()
		r, ok := s.byKey[j.Key()]
		s.mu.Unlock()
		if ok {
			return r, nil
		}
		return j.Machine.New()
	}
	t.Cleanup(func() { newRunner = old })
}

func (s *stubs) add(j Job, r Runner) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey == nil {
		s.byKey = make(map[Key]Runner)
	}
	s.byKey[j.Key()] = r
	return j
}

// stubMachine builds distinct (but valid) machine specs from a small id.
// Warmup is off so the short stub workloads leave something to measure.
func stubMachine(id int) spec.Machine {
	return spec.Machine{Model: spec.ModelInOrder, Overrides: &spec.Overrides{SliceEntries: spec.Int(32 + id), Warmup: spec.Int(0)}}
}

// stubWorkload builds distinct (but valid, cheap to generate) workload
// specs from a small id.
func stubWorkload(id int) spec.Workload {
	return spec.SPECWorkload("mcf", 1000+id)
}

type stubRunner struct {
	cycles int64
	runs   *atomic.Int64
}

func (s stubRunner) Run(*workload.Workload) pipeline.Result {
	if s.runs != nil {
		s.runs.Add(1)
	}
	return pipeline.Result{Name: "stub", Cycles: s.cycles, Insts: 100}
}

// stubJob registers a canned-result job: machine mid over workload wid.
func (s *stubs) stubJob(name string, mid, wid int, cycles int64, runs *atomic.Int64) Job {
	j := Job{Name: name, Machine: stubMachine(mid), Workload: stubWorkload(wid)}
	return s.add(j, stubRunner{cycles: cycles, runs: runs})
}

func TestRunMemoizesEqualKeys(t *testing.T) {
	var s stubs
	s.install(t)
	var runs atomic.Int64
	jobs := []Job{
		s.stubJob("a", 1, 1, 100, &runs),
		s.stubJob("b", 1, 1, 100, &runs), // same key as a
		s.stubJob("c", 2, 1, 200, &runs), // different machine
		s.stubJob("d", 1, 2, 300, &runs), // different workload
	}
	hooks := 0
	rs, err := Run(jobs, Parallelism(4), OnRun(func(Key) { hooks++ }))
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("simulations = %d, want 3 (jobs a and b share a key)", got)
	}
	if hooks != 3 {
		t.Errorf("OnRun fired %d times, want 3", hooks)
	}
	if rs.MustGet("a").Cycles != 100 || rs.MustGet("b").Cycles != 100 ||
		rs.MustGet("c").Cycles != 200 || rs.MustGet("d").Cycles != 300 {
		t.Errorf("wrong results: %+v", rs.Results())
	}
}

// slowRunner blocks until released, forcing concurrent duplicate-key
// jobs onto the engine's deferred path (workers must not park on an
// in-flight key; they defer it and keep draining the queue).
type slowRunner struct {
	release <-chan struct{}
	runs    *atomic.Int64
}

func (s slowRunner) Run(*workload.Workload) pipeline.Result {
	s.runs.Add(1)
	<-s.release
	return pipeline.Result{Name: "slow", Cycles: 7, Insts: 1}
}

func TestRunDefersInFlightDuplicates(t *testing.T) {
	var s stubs
	s.install(t)
	var runs atomic.Int64
	release := make(chan struct{})
	var fastRuns atomic.Int64
	slowJob := func(name string) Job {
		j := Job{Name: name, Machine: stubMachine(100), Workload: stubWorkload(100)}
		return s.add(j, slowRunner{release: release, runs: &runs})
	}
	jobs := []Job{slowJob("s1"), slowJob("s2"), slowJob("s3")}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, s.stubJob(fmt.Sprintf("f%d", i), i, i, int64(i), &fastRuns))
	}
	done := make(chan *ResultSet, 1)
	go func() {
		rs, err := Run(jobs, Parallelism(2))
		if err != nil {
			t.Error(err)
		}
		done <- rs
	}()
	// With 2 workers and the slow key claimed, the remaining worker (and
	// the one that dequeues s2/s3) must still drain every fast job
	// before the slow simulation is released.
	deadline := time.Now().Add(10 * time.Second)
	for fastRuns.Load() < 8 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("fast jobs did not drain while the slow key was in flight (worker parked on a duplicate?)")
		}
		runtime.Gosched()
	}
	close(release)
	rs := <-done
	if runs.Load() != 1 {
		t.Errorf("slow key simulated %d times, want 1", runs.Load())
	}
	for _, name := range []string{"s1", "s2", "s3"} {
		if rs.MustGet(name).Cycles != 7 {
			t.Errorf("%s: cycles = %d, want 7", name, rs.MustGet(name).Cycles)
		}
	}
}

func TestRunSharedCacheAcrossRuns(t *testing.T) {
	var s stubs
	s.install(t)
	var runs atomic.Int64
	cache := NewCache()
	for i := 0; i < 3; i++ {
		if _, err := Run([]Job{s.stubJob("a", 1, 1, 1, &runs)}, WithCache(cache)); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("simulations across 3 cached runs = %d, want 1", got)
	}
	if cache.Simulations() != 1 {
		t.Errorf("cache.Simulations() = %d, want 1", cache.Simulations())
	}
	k := Job{Name: "a", Machine: stubMachine(1), Workload: stubWorkload(1)}.Key()
	if _, ok := cache.Lookup(k); !ok {
		t.Errorf("cache holds no result for %v, the one key simulated", k)
	}
}

// witnessRunner records which workload pointer each simulation received.
type witnessRunner struct {
	mu   *sync.Mutex
	seen *[]*workload.Workload
}

func (r witnessRunner) Run(w *workload.Workload) pipeline.Result {
	r.mu.Lock()
	*r.seen = append(*r.seen, w)
	r.mu.Unlock()
	return pipeline.Result{Name: w.Name, Cycles: 1, Insts: 1}
}

// TestRunSharesWorkloadsWithinRun pins that Run routes every job through
// one arena: distinct simulations with equal workload specs see the same
// workload pointer.
func TestRunSharesWorkloadsWithinRun(t *testing.T) {
	var s stubs
	s.install(t)
	var mu sync.Mutex
	var seen []*workload.Workload
	wl := stubWorkload(0)
	jobs := make([]Job, 0, 4)
	for i := 0; i < 4; i++ {
		j := Job{Name: fmt.Sprintf("j/%d", i), Machine: stubMachine(i), Workload: wl}
		jobs = append(jobs, s.add(j, witnessRunner{mu: &mu, seen: &seen}))
	}
	arenas := captureArenas(t)
	if _, err := Run(jobs, Parallelism(2)); err != nil {
		t.Fatal(err)
	}
	if arena := arenas()[0]; arena.Generations() != 1 {
		t.Errorf("4 jobs over one workload spec generated %d workloads, want 1", arena.Generations())
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 simulations, saw %d", len(seen))
	}
	for _, w := range seen[1:] {
		if w != seen[0] {
			t.Error("jobs sharing a workload spec must receive the same workload pointer")
		}
	}
}
