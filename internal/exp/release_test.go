package exp

// Arena lifetime tests: a Run that owns its arena holds workloads in
// proportion to its parallelism, not its plan, and every way a job can
// finish with its workload — simulated, parked behind another claimant,
// answered from the cache, skipped on cancel — releases it.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icfp/internal/obs"
	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

// captureArenas collects the private arenas Run builds for the duration
// of the test, in creation order.
func captureArenas(t *testing.T) func() []*Arena {
	t.Helper()
	var mu sync.Mutex
	var got []*Arena
	old := privateArena
	privateArena = func() *Arena {
		a := NewArena()
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
		return a
	}
	t.Cleanup(func() { privateArena = old })
	return func() []*Arena {
		mu.Lock()
		defer mu.Unlock()
		return append([]*Arena(nil), got...)
	}
}

// live reports how many workloads the arena holds now; maxLive, the
// most it ever held at once.
func (a *Arena) live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries)
}

func (a *Arena) maxLive() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// machineMajor builds machines × workloads stub jobs in machine-major
// order, the worst order for a dispatcher that follows the job list:
// the last machine needs every workload again.
func machineMajor(s *stubs, machines, workloads int) []Job {
	var jobs []Job
	for m := 0; m < machines; m++ {
		for w := 0; w < workloads; w++ {
			jobs = append(jobs, s.stubJob(fmt.Sprintf("m%d/w%d", m, w), m, w, int64(100*m+w), nil))
		}
	}
	return jobs
}

func TestWorkloadMajorOrder(t *testing.T) {
	order, group, groups := workloadMajor([]string{"a", "b", "a", "c", "b", "a"})
	if want := []int{0, 2, 5, 1, 4, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if want := []int{0, 1, 0, 2, 1, 0}; !reflect.DeepEqual(group, want) {
		t.Errorf("group = %v, want %v", group, want)
	}
	if groups != 3 {
		t.Errorf("groups = %d, want 3", groups)
	}
}

// TestPrivateArenaBoundedByParallelism pins the memory contract: over a
// plan naming 8 workloads, a Run that owns its arena holds at most one
// workload at Parallelism(1) and three at Parallelism(2), releases them
// all by the time it returns, and still generates each only once.
func TestPrivateArenaBoundedByParallelism(t *testing.T) {
	var s stubs
	s.install(t)
	jobs := machineMajor(&s, 3, 8)
	for _, c := range []struct{ par, maxLive int }{{1, 1}, {2, 3}} {
		arenas := captureArenas(t)
		rs, err := Run(jobs, Parallelism(c.par))
		if err != nil {
			t.Fatal(err)
		}
		a := arenas()[0]
		if got := a.maxLive(); got > c.maxLive {
			t.Errorf("Parallelism(%d): %d workloads live at once, want <= %d", c.par, got, c.maxLive)
		}
		if got := a.live(); got != 0 {
			t.Errorf("Parallelism(%d): %d workloads still held after Run returned", c.par, got)
		}
		if got := a.Generations(); got != 8 {
			t.Errorf("Parallelism(%d): %d generations, want 8 (one per workload)", c.par, got)
		}
		for m := 0; m < 3; m++ {
			for w := 0; w < 8; w++ {
				if got := rs.MustGet(fmt.Sprintf("m%d/w%d", m, w)).Cycles; got != int64(100*m+w) {
					t.Errorf("Parallelism(%d): m%d/w%d cycles = %d, want %d (results land by job index)", c.par, m, w, got, 100*m+w)
				}
			}
		}
	}
}

// TestGenerateAheadBoundedUnderSlowHelpers pins the same bound when
// every generate-ahead helper lingers after its generation, as one the
// scheduler leaves waiting does: the dispatcher starts no helper while
// another is in flight, so the run still holds at most three workloads
// at Parallelism(2).
func TestGenerateAheadBoundedUnderSlowHelpers(t *testing.T) {
	var s stubs
	s.install(t)
	genAheadHook = func() { time.Sleep(5 * time.Millisecond) }
	t.Cleanup(func() { genAheadHook = nil })
	jobs := machineMajor(&s, 3, 8)
	for r := range 3 {
		arenas := captureArenas(t)
		if _, err := Run(jobs, Parallelism(2)); err != nil {
			t.Fatal(err)
		}
		a := arenas()[0]
		if got := a.maxLive(); got > 3 {
			t.Errorf("round %d: %d workloads live at once, want <= 3", r, got)
		}
		if got := a.live(); got != 0 {
			t.Errorf("round %d: %d workloads still held after Run returned", r, got)
		}
		if got := a.Generations(); got != 8 {
			t.Errorf("round %d: %d generations, want 8 (one per workload)", r, got)
		}
	}
}

// closingRunner closes a channel (once) when it runs.
type closingRunner struct {
	once *sync.Once
	ch   chan struct{}
}

func (r closingRunner) Run(*workload.Workload) pipeline.Result {
	r.once.Do(func() { close(r.ch) })
	return pipeline.Result{Name: "closing", Cycles: 1, Insts: 1}
}

// blockingRunner signals that it started, then blocks until released.
type blockingRunner struct{ started, release chan struct{} }

func (r blockingRunner) Run(*workload.Workload) pipeline.Result {
	close(r.started)
	<-r.release
	return pipeline.Result{Name: "blocking", Cycles: 9, Insts: 1}
}

// TestCancelReleasesPins: the first job cancels the run from inside its
// simulation; the jobs the pool then drains without simulating — two of
// them over the same workload — still count down, so the workload the
// first job generated is released.
func TestCancelReleasesPins(t *testing.T) {
	var s stubs
	s.install(t)
	arenas := captureArenas(t)
	cancel := make(chan struct{})
	canceler := s.add(Job{Name: "canceler", Machine: stubMachine(50), Workload: stubWorkload(0)},
		closingRunner{once: new(sync.Once), ch: cancel})
	jobs := append([]Job{canceler}, machineMajor(&s, 2, 8)...)
	if _, err := Run(jobs, Parallelism(1), Cancel(cancel)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run = %v, want ErrCanceled", err)
	}
	a := arenas()[0]
	if got := a.Generations(); got != 1 {
		t.Errorf("%d generations, want 1 (only the canceling job simulated)", got)
	}
	if got := a.live(); got != 0 {
		t.Errorf("canceled run still holds %d workloads", got)
	}
}

// TestDeferredReleasesPins: a job parked behind another run's in-flight
// simulation of its key must count down its workload's pin, or the
// workload its sibling generated stays held to the end of the run.
func TestDeferredReleasesPins(t *testing.T) {
	var s stubs
	s.install(t)
	arenas := captureArenas(t)
	cache := NewCache()

	// Run A claims key K and blocks inside its simulation.
	started, release := make(chan struct{}), make(chan struct{})
	k := s.add(Job{Name: "a", Machine: stubMachine(100), Workload: stubWorkload(100)},
		blockingRunner{started: started, release: release})
	aDone := make(chan error, 1)
	go func() {
		_, err := Run([]Job{k}, WithCache(cache), Parallelism(1))
		aDone <- err
	}()
	<-started

	// Run B holds K (parked: A is still simulating it) and a sibling over
	// the same workload, which B simulates itself. The sibling signals
	// when it runs — after K was parked, since B's pool is serial — and
	// only then may A finish.
	dup := k
	dup.Name = "b/dup"
	siblingRan := make(chan struct{})
	sibling := s.add(Job{Name: "b/sibling", Machine: stubMachine(101), Workload: stubWorkload(100)},
		closingRunner{once: new(sync.Once), ch: siblingRan})
	bDone := make(chan error, 1)
	go func() {
		_, err := Run([]Job{dup, sibling}, WithCache(cache), Parallelism(1))
		bDone <- err
	}()
	<-siblingRan
	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	got := arenas()
	if len(got) != 2 {
		t.Fatalf("captured %d private arenas, want 2", len(got))
	}
	b := got[1]
	if n := b.Generations(); n != 1 {
		t.Errorf("run B generated %d workloads, want 1 (the sibling's)", n)
	}
	if n := b.live(); n != 0 {
		t.Errorf("run B still holds %d workloads: the parked job kept its pin", n)
	}
}

// runnerFunc adapts a function to a Runner.
type runnerFunc func(*workload.Workload) pipeline.Result

func (f runnerFunc) Run(w *workload.Workload) pipeline.Result { return f(w) }

// TestGenerateAhead: with two workers, the next group's workload is
// generated while both workers are still simulating the current group —
// before any of the next group's jobs is dispatched — and with one
// worker it is not.
func TestGenerateAhead(t *testing.T) {
	for _, c := range []struct {
		par  int
		want int // generations seen from inside group 0's jobs
	}{{1, 1}, {2, 2}} {
		var s stubs
		s.install(t)
		arenas := captureArenas(t)
		var mu sync.Mutex
		var seen []int
		// arrived is a barrier: at Parallelism(2) neither waiter returns
		// (freeing its worker for the next group) until both have looked.
		var arrived atomic.Int32
		waiter := runnerFunc(func(*workload.Workload) pipeline.Result {
			a := arenas()[0]
			deadline := time.Now().Add(10 * time.Second)
			for a.Generations() < c.want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			seen = append(seen, a.Generations())
			mu.Unlock()
			arrived.Add(1)
			for arrived.Load() < int32(c.par) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			return pipeline.Result{Name: "waiter", Cycles: 1, Insts: 1}
		})
		jobs := []Job{
			s.add(Job{Name: "w0a", Machine: stubMachine(0), Workload: stubWorkload(0)}, waiter),
			s.add(Job{Name: "w0b", Machine: stubMachine(1), Workload: stubWorkload(0)}, waiter),
			s.stubJob("w1", 0, 1, 1, nil),
			s.stubJob("w2", 0, 2, 1, nil),
		}
		if _, err := Run(jobs, Parallelism(c.par)); err != nil {
			t.Fatal(err)
		}
		for _, n := range seen {
			if n != c.want {
				t.Errorf("Parallelism(%d): %d workloads generated while group 0 simulated, want %d", c.par, n, c.want)
			}
		}
		if a := arenas()[0]; a.Generations() != 3 || a.live() != 0 {
			t.Errorf("Parallelism(%d): %d generations, %d live after Run, want 3 and 0", c.par, a.Generations(), a.live())
		}
	}
}

// TestGenerateAheadReleasesOnCancel: a run canceled by its first job
// releases every workload — including one a generate-ahead helper was
// building when the cancel landed — before Run returns. The race between
// the cancel and the helper's start goes either way, so the run repeats.
func TestGenerateAheadReleasesOnCancel(t *testing.T) {
	var s stubs
	s.install(t)
	arenas := captureArenas(t)
	for r := range 20 {
		cancel := make(chan struct{})
		canceler := s.add(Job{Name: "canceler", Machine: stubMachine(60 + r), Workload: stubWorkload(0)},
			closingRunner{once: new(sync.Once), ch: cancel})
		jobs := append([]Job{canceler}, machineMajor(&s, 2, 4)...)
		if _, err := Run(jobs, Parallelism(2), Cancel(cancel)); !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run = %v, want ErrCanceled", err)
		}
		a := arenas()[r]
		if got := a.live(); got != 0 {
			t.Fatalf("round %d: canceled run still holds %d workloads", r, got)
		}
		if got := a.maxLive(); got > 3 {
			t.Fatalf("round %d: %d workloads live at once, want <= 3", r, got)
		}
	}
}

// TestGenerateAheadSkipsCachedGroups: a group whose every job is already
// complete in the cache is never generated — not by a job, which hits
// the cache, and not ahead of time — and peeking at the cache to decide
// that counts no hit or miss.
func TestGenerateAheadSkipsCachedGroups(t *testing.T) {
	var s stubs
	s.install(t)
	arenas := captureArenas(t)
	cache := NewCache()
	jobs := machineMajor(&s, 3, 3) // workloads 0, 1, 2; three machines each
	var cached []Job
	for _, j := range jobs {
		if j.Workload == stubWorkload(1) {
			cached = append(cached, j)
		}
	}
	if _, err := Run(cached, WithCache(cache), Parallelism(2)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache.Instrument(reg)
	if _, err := Run(jobs, WithCache(cache), Parallelism(2)); err != nil {
		t.Fatal(err)
	}
	a := arenas()[1]
	if got := a.Generations(); got != 2 {
		t.Errorf("%d generations, want 2: the fully cached workload must not be generated", got)
	}
	if a.live() != 0 {
		t.Errorf("%d workloads still held after Run returned", a.live())
	}
	hits := reg.Counter("exp_cache_hits_total", "").Value()
	misses := reg.Counter("exp_cache_misses_total", "").Value()
	if hits != 3 || misses != 6 {
		t.Errorf("cache counted %d hits and %d misses, want 3 and 6 (one per job claim; peeks count nothing)", hits, misses)
	}
}
