package dist_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/obs"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// The test world: real (but tiny — tens of instructions) scenario
// simulations. Batches are self-describing since protocol v2, so workers
// need no stub resolver: they run whatever specs arrive.

// testJobs builds n distinct real jobs from (model, scenario) combos,
// with warmup disabled (scenarios pre-warm their caches explicitly).
func testJobs(n int) []exp.Job {
	machines := sim.PaperMachines()
	if max := len(machines) * len(workload.AllScenarios); n > max {
		panic(fmt.Sprintf("at most %d distinct test jobs", max))
	}
	jobs := make([]exp.Job, 0, n)
	for i := 0; i < n; i++ {
		m := machines[i%len(machines)].Machine
		m.Overrides = &spec.Overrides{Warmup: spec.Int(0)}
		sc := workload.AllScenarios[i/len(machines)]
		jobs = append(jobs, exp.Job{
			Name:     fmt.Sprintf("job%d", i),
			Machine:  m,
			Workload: spec.ScenarioWorkload(sc),
		})
	}
	return jobs
}

// localResults simulates the jobs in-process, the reference the
// distributed path must reproduce exactly.
func localResults(t *testing.T, jobs []exp.Job) map[exp.Key]pipeline.Result {
	t.Helper()
	cache := exp.NewCache()
	if _, err := exp.Run(jobs, exp.WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	out := make(map[exp.Key]pipeline.Result, len(jobs))
	for _, j := range jobs {
		res, ok := cache.Lookup(j.Key())
		if !ok {
			t.Fatalf("local reference run missing %v", j.Key())
		}
		out[j.Key()] = res
	}
	return out
}

// startWorker serves one in-process worker over a pipe and returns the
// coordinator-side handle plus a channel carrying Serve's error.
func startWorker(t *testing.T, name string, opts ...dist.ServeOption) (dist.Worker, <-chan error) {
	t.Helper()
	coordEnd, workerEnd := dist.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- dist.Serve(workerEnd, opts...) }()
	return dist.Worker{Name: name, RW: coordEnd}, errc
}

func TestProtocolRoundTrip(t *testing.T) {
	job := testJobs(1)[0]
	msgs := []*dist.Message{
		{Type: dist.TypeRegister, Proto: dist.ProtoVersion, Name: "hostB:4242"},
		{Type: dist.TypeInit, Proto: dist.ProtoVersion, Parallel: 2},
		{Type: dist.TypeReady},
		{Type: dist.TypeBatch, BatchID: 1, Jobs: []spec.Job{{Machine: job.Machine, Workload: job.Workload}}},
		{Type: dist.TypeResult, Result: &exp.CachedResult{Machine: job.Key().Machine, Workload: job.Key().Workload, R: pipeline.Result{Cycles: 42}}},
		{Type: dist.TypeBatchDone, BatchID: 1},
		{Type: dist.TypeGoodbye},
		{Type: dist.TypeError, Err: "boom"},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := dist.WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := dist.ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("round trip: got %s, want %s", gj, wj)
		}
	}
	if _, err := dist.ReadMessage(&buf); err != io.EOF {
		t.Errorf("read past final frame = %v, want io.EOF", err)
	}
}

func TestReadMessageRejectsOversizeAndTruncated(t *testing.T) {
	if _, err := dist.ReadMessage(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Error("oversize frame length accepted")
	}
	var buf bytes.Buffer
	if err := dist.WriteMessage(&buf, &dist.Message{Type: dist.TypeReady}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	if _, err := dist.ReadMessage(bytes.NewReader(cut)); err == nil || err == io.EOF {
		t.Errorf("truncated frame read = %v, want a mid-frame error", err)
	}
}

// TestRunMergesAllResults is the subsystem's core path: a plan sharded
// over three workers — none of which has any prior copy of the job set;
// every batch is self-describing — lands complete and correct in the
// coordinator's cache, with every job simulated exactly once across the
// fleet and results identical to a local run.
func TestRunMergesAllResults(t *testing.T) {
	jobs := testJobs(13)
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}

	var fleetRuns atomic.Int64
	var workers []dist.Worker
	for i := 0; i < 3; i++ {
		w, _ := startWorker(t, fmt.Sprintf("w%d", i), dist.OnSimulate(func(exp.Key) { fleetRuns.Add(1) }))
		workers = append(workers, w)
	}
	cache := exp.NewCache()
	if err := dist.Run(plan, workers, cache, dist.Options{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		res, ok := cache.Lookup(k)
		if !ok {
			t.Fatalf("plan entry %d (%+v) missing from merged cache", i, k)
		}
		if res != want[k] {
			t.Errorf("plan entry %d: distributed result %+v != local %+v", i, res, want[k])
		}
	}
	if got := fleetRuns.Load(); got != int64(len(plan)) {
		t.Errorf("fleet simulated %d times, want %d (each job exactly once)", got, len(plan))
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on workers", cache.Simulations())
	}
}

// TestWorkloadGroupsStayOnOneWorker pins workload-affine dispatch: with
// batches filled to the pool width by whole workload groups, every
// workload's keys are simulated by one worker, which generates its
// trace once, and the merged cache still equals a local run. The plan
// is machine-major, so the coordinator's workload-major ordering is what
// keeps each group together.
func TestWorkloadGroupsStayOnOneWorker(t *testing.T) {
	var jobs []exp.Job
	for _, pm := range sim.PaperMachines()[:3] {
		m := pm.Machine
		m.Overrides = &spec.Overrides{Warmup: spec.Int(0)}
		for _, sc := range workload.AllScenarios {
			jobs = append(jobs, exp.Job{Name: fmt.Sprintf("%s/%s", pm.Label, sc), Machine: m, Workload: spec.ScenarioWorkload(sc)})
		}
	}
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 18 {
		t.Fatalf("plan has %d keys, want 6 workloads x 3 machines", len(plan))
	}

	var mu sync.Mutex
	ranOn := map[string]map[string]int{} // workload -> worker -> simulations
	var workers []dist.Worker
	for i := range 2 {
		name := fmt.Sprintf("w%d", i)
		w, _ := startWorker(t, name, dist.OnSimulate(func(k exp.Key) {
			mu.Lock()
			defer mu.Unlock()
			if ranOn[k.Workload] == nil {
				ranOn[k.Workload] = map[string]int{}
			}
			ranOn[k.Workload][name]++
		}))
		workers = append(workers, w)
	}
	cache := exp.NewCache()
	if err := dist.Run(plan, workers, cache, dist.Options{Parallel: 3}); err != nil {
		t.Fatal(err)
	}
	if len(ranOn) != len(workload.AllScenarios) {
		t.Errorf("simulated %d workloads, want %d", len(ranOn), len(workload.AllScenarios))
	}
	for wl, by := range ranOn {
		if len(by) != 1 {
			t.Errorf("workload %s simulated on %d workers (%v), want one", wl, len(by), by)
		}
		for _, n := range by {
			if n != 3 {
				t.Errorf("workload %s: %d simulations, want its 3 machines once each", wl, n)
			}
		}
	}
	for _, sj := range plan {
		k := exp.KeyOf(sj)
		if res, ok := cache.Lookup(k); !ok || res != want[k] {
			t.Errorf("%v: merged (%+v, %v), want the local result %+v", k, res, ok, want[k])
		}
	}
}

// TestRunSkipsCachedKeys pins the -store interplay: preloaded keys
// are never dispatched, and a fully warm cache needs no workers at all.
func TestRunSkipsCachedKeys(t *testing.T) {
	jobs := testJobs(6)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	cache := exp.NewCache()
	if _, err := exp.Run(jobs[:4], exp.WithCache(cache)); err != nil {
		t.Fatal(err)
	}

	var remote atomic.Int64
	w, _ := startWorker(t, "w0", dist.OnSimulate(func(exp.Key) { remote.Add(1) }))
	if err := dist.Run(plan, []dist.Worker{w}, cache, dist.Options{Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if got := remote.Load(); got != 2 {
		t.Errorf("worker simulated %d jobs, want 2 (4 of 6 preloaded)", got)
	}

	// Fully warm: no workers required.
	if err := dist.Run(plan, nil, cache, dist.Options{}); err != nil {
		t.Errorf("warm-cache run with no workers: %v", err)
	}
	// Cold with no workers must error, not hang.
	if err := dist.Run(plan, nil, exp.NewCache(), dist.Options{}); err == nil {
		t.Error("cold run with no workers must fail")
	}
}

// dyingRW lets a fixed number of worker-side frames through, then fails
// every write and severs the pipe — a deterministic stand-in for a
// worker process crashing mid-batch.
type dyingRW struct {
	rw         io.ReadWriteCloser
	writesLeft atomic.Int32
	died       chan struct{}
	once       sync.Once
}

func newDyingRW(rw io.ReadWriteCloser, frames int32) *dyingRW {
	d := &dyingRW{rw: rw, died: make(chan struct{})}
	d.writesLeft.Store(frames)
	return d
}

func (d *dyingRW) Read(p []byte) (int, error) { return d.rw.Read(p) }

func (d *dyingRW) Write(p []byte) (int, error) {
	if d.writesLeft.Add(-1) < 0 {
		d.once.Do(func() {
			d.rw.Close()
			close(d.died)
		})
		return 0, fmt.Errorf("worker crashed")
	}
	return d.rw.Write(p)
}

// gatedRW delays a worker's first read (and with it the whole handshake)
// until the gate opens — the deterministic scheduling device behind the
// crash and stall tests.
type gatedRW struct {
	rw   io.ReadWriteCloser
	gate <-chan struct{}
}

func (g *gatedRW) Read(p []byte) (int, error)  { <-g.gate; return g.rw.Read(p) }
func (g *gatedRW) Write(p []byte) (int, error) { return g.rw.Write(p) }
func (g *gatedRW) Close() error                { return g.rw.Close() }

// TestCrashRecovery pins the headline fault-tolerance guarantee: a
// worker that dies mid-batch loses nothing — the batch's unfinished
// remainder is reassigned to the survivor and the run completes with a
// full, correct cache and no error.
//
// The schedule is made deterministic by gating the survivor's transport
// on the victim's death: the only ready worker when the batch is first
// dispatched is the one that will crash.
func TestCrashRecovery(t *testing.T) {
	jobs := testJobs(8)
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Victim: allowed ready + one result, then crashes.
	var victimRuns atomic.Int64
	coordEnd, workerEnd := dist.Pipe()
	dying := newDyingRW(workerEnd, 2)
	victimErr := make(chan error, 1)
	go func() {
		victimErr <- dist.Serve(dying, dist.OnSimulate(func(exp.Key) { victimRuns.Add(1) }))
	}()
	victim := dist.Worker{Name: "victim", RW: coordEnd}

	// Survivor: its handshake blocks until the victim is dead, so the
	// first dispatch must land on the victim.
	var survivorRuns atomic.Int64
	survCoord, survWorker := dist.Pipe()
	go dist.Serve(&gatedRW{rw: survWorker, gate: dying.died}, dist.OnSimulate(func(exp.Key) { survivorRuns.Add(1) }))
	survivor := dist.Worker{Name: "survivor", RW: survCoord}

	cache := exp.NewCache()
	err = dist.Run(plan, []dist.Worker{victim, survivor}, cache, dist.Options{
		Parallel: len(plan), // one batch: the crash strands a big remainder
		Log:      obs.TestLogger(t),
	})
	if err != nil {
		t.Fatalf("run with one crashed worker must still succeed, got: %v", err)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		res, ok := cache.Lookup(k)
		if !ok {
			t.Fatalf("plan entry %d (%+v) missing after crash recovery", i, k)
		}
		if res != want[k] {
			t.Errorf("plan entry %d: result diverged after crash recovery", i)
		}
	}
	if serr := <-victimErr; serr == nil {
		t.Error("victim's Serve must report its send failure")
	}
	// Exactly one victim result was merged before the crash, so the
	// survivor must have re-run the other 7 jobs.
	if got := survivorRuns.Load(); got != int64(len(plan))-1 {
		t.Errorf("survivor simulated %d jobs, want %d", got, len(plan)-1)
	}
}

// TestStalledWorkerTimesOut pins FrameTimeout: a worker that stays
// connected but goes silent mid-batch is declared dead on expiry and its
// batch reassigned, exactly like a crash. The schedule is deterministic:
// the survivor's handshake is gated on the staller having received the
// batch.
func TestStalledWorkerTimesOut(t *testing.T) {
	jobs := testJobs(6)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// The staller speaks the handshake honestly, accepts the batch, then
	// never answers.
	coordEnd, workerEnd := dist.Pipe()
	gotBatch := make(chan struct{})
	go func() {
		m, err := dist.ReadMessage(workerEnd)
		if err != nil || m.Type != dist.TypeInit {
			return
		}
		if err := dist.WriteMessage(workerEnd, &dist.Message{Type: dist.TypeReady}); err != nil {
			return
		}
		if m, err = dist.ReadMessage(workerEnd); err != nil || m.Type != dist.TypeBatch {
			return
		}
		close(gotBatch)
		// Silence: hold the connection open without ever responding.
		dist.ReadMessage(workerEnd)
	}()
	staller := dist.Worker{Name: "staller", RW: coordEnd}

	var survivorRuns atomic.Int64
	survCoord, survWorker := dist.Pipe()
	go dist.Serve(&gatedRW{rw: survWorker, gate: gotBatch}, dist.OnSimulate(func(exp.Key) { survivorRuns.Add(1) }))
	survivor := dist.Worker{Name: "survivor", RW: survCoord}

	cache := exp.NewCache()
	err = dist.Run(plan, []dist.Worker{staller, survivor}, cache, dist.Options{
		Parallel:     len(plan), // one batch
		FrameTimeout: 150 * time.Millisecond,
		Log:          obs.TestLogger(t),
	})
	if err != nil {
		t.Fatalf("run with one stalled worker must still succeed, got: %v", err)
	}
	for i, sj := range plan {
		if _, ok := cache.Lookup(exp.KeyOf(sj)); !ok {
			t.Fatalf("plan entry %d missing after stall recovery", i)
		}
	}
	if got := survivorRuns.Load(); got != int64(len(plan)) {
		t.Errorf("survivor simulated %d jobs, want all %d", got, len(plan))
	}
}

// TestRetryCapFails pins that a batch cannot be redispatched forever: at
// MaxAttempts the run fails with context instead of spinning.
func TestRetryCapFails(t *testing.T) {
	plan, err := exp.Plan(testJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	coordEnd, workerEnd := dist.Pipe()
	dying := newDyingRW(workerEnd, 1) // ready only; every result write fails
	go dist.Serve(dying)

	err = dist.Run(plan, []dist.Worker{{Name: "flaky", RW: coordEnd}}, exp.NewCache(), dist.Options{
		MaxAttempts: 1,
	})
	if err == nil {
		t.Fatal("run must fail once the retry cap is hit")
	}
	if !strings.Contains(err.Error(), "dist:") {
		t.Errorf("error lacks dist context: %v", err)
	}
}

// TestWorkerRejectsInvalidJobSpec pins the v2 replacement for the old
// job-table skew guard: a batch carrying a spec the worker cannot
// validate aborts the run with the worker's diagnostic, instead of
// simulating the wrong thing.
func TestWorkerRejectsInvalidJobSpec(t *testing.T) {
	w, serveErr := startWorker(t, "strict")
	rogue := []spec.Job{{
		Machine:  spec.Machine{Model: "not-a-model"},
		Workload: spec.ScenarioWorkload(workload.ScenarioLoneL2),
	}}
	err := dist.Run(rogue, []dist.Worker{w}, exp.NewCache(), dist.Options{})
	if err == nil || !strings.Contains(err.Error(), "invalid job spec") {
		t.Errorf("run error = %v, want the worker's invalid-spec diagnostic", err)
	}
	if serr := <-serveErr; serr == nil {
		t.Error("worker Serve must also fail")
	}
}

// TestWorkerRejectsHostileParallelism pins the worker-side cap on the
// coordinator-requested pool size (the init frame arrives over the
// network on TCP workers).
func TestWorkerRejectsHostileParallelism(t *testing.T) {
	coordEnd, workerEnd := dist.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- dist.Serve(workerEnd) }()
	if err := dist.WriteMessage(coordEnd, &dist.Message{Type: dist.TypeInit, Proto: dist.ProtoVersion, Parallel: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	m, err := dist.ReadMessage(coordEnd)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != dist.TypeError || !strings.Contains(m.Err, "parallelism") {
		t.Errorf("reply = %+v, want a parallelism-cap error frame", m)
	}
	coordEnd.Close()
	if serr := <-serveErr; serr == nil {
		t.Error("Serve must fail on a hostile parallelism request")
	}
}

// TestProtocolVersionMismatchNamesBothVersions pins the version-bump
// hygiene in both directions: a skewed handshake fails with a message
// naming both protocol versions — never a decode panic or a silent
// mis-simulation.
func TestProtocolVersionMismatchNamesBothVersions(t *testing.T) {
	// Old coordinator (v1) → this worker (v2): the worker's error frame
	// names both versions.
	coordEnd, workerEnd := dist.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- dist.Serve(workerEnd) }()
	if err := dist.WriteMessage(coordEnd, &dist.Message{Type: dist.TypeInit, Proto: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := dist.ReadMessage(coordEnd)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != dist.TypeError ||
		!strings.Contains(m.Err, "v1") || !strings.Contains(m.Err, fmt.Sprintf("v%d", dist.ProtoVersion)) {
		t.Errorf("reply = %+v, want a version-mismatch error naming v1 and v%d", m, dist.ProtoVersion)
	}
	coordEnd.Close()
	if serr := <-serveErr; serr == nil {
		t.Error("Serve must fail on version mismatch")
	}

	// Old worker (v1) ↔ this coordinator (v2): the v1 worker rejects the
	// v2 init exactly as the v1 code did — with an error frame naming
	// both versions — and the coordinator surfaces it as a fatal error,
	// not a decode panic or a hang.
	plan, err := exp.Plan(testJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	c2, w2 := dist.Pipe()
	go func() {
		// A faithful reenactment of the v1 worker's handshake rejection.
		m, err := dist.ReadMessage(w2)
		if err != nil || m.Type != dist.TypeInit {
			return
		}
		if m.Proto != 1 {
			dist.WriteMessage(w2, &dist.Message{Type: dist.TypeError,
				Err: fmt.Sprintf("protocol version mismatch: coordinator %d, worker %d", m.Proto, 1)})
		}
	}()
	err = dist.Run(plan, []dist.Worker{{Name: "v1-worker", RW: c2}}, exp.NewCache(), dist.Options{})
	if err == nil || !strings.Contains(err.Error(), "version mismatch") ||
		!strings.Contains(err.Error(), fmt.Sprintf("%d", dist.ProtoVersion)) || !strings.Contains(err.Error(), "1") {
		t.Errorf("run against a v1 worker = %v, want a fatal version-mismatch error naming both versions", err)
	}
}

// TestWorkerAnswersRedispatchFromCache pins the worker-side cache: a job
// re-dispatched on the same connection (a coordinator retry) is answered
// without re-simulating.
func TestWorkerAnswersRedispatchFromCache(t *testing.T) {
	jobs := testJobs(3)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	coordEnd, workerEnd := dist.Pipe()
	go dist.Serve(workerEnd, dist.OnSimulate(func(exp.Key) { runs.Add(1) }))

	if err := dist.WriteMessage(coordEnd, &dist.Message{Type: dist.TypeInit, Proto: dist.ProtoVersion, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if m, err := dist.ReadMessage(coordEnd); err != nil || m.Type != dist.TypeReady {
		t.Fatalf("handshake reply = (%+v, %v)", m, err)
	}
	for batch := 1; batch <= 2; batch++ {
		if err := dist.WriteMessage(coordEnd, &dist.Message{Type: dist.TypeBatch, BatchID: batch, Jobs: plan}); err != nil {
			t.Fatal(err)
		}
		results := 0
		for {
			m, err := dist.ReadMessage(coordEnd)
			if err != nil {
				t.Fatal(err)
			}
			if m.Type == dist.TypeBatchDone {
				break
			}
			if m.Type != dist.TypeResult {
				t.Fatalf("unexpected %q frame", m.Type)
			}
			results++
		}
		if results != len(plan) {
			t.Fatalf("batch %d returned %d results, want %d", batch, results, len(plan))
		}
	}
	coordEnd.Close()
	if got := runs.Load(); got != int64(len(plan)) {
		t.Errorf("worker simulated %d times across a re-dispatch, want %d (second batch from cache)", got, len(plan))
	}
}

// realResult builds the CachedResult a scripted worker must stream for
// the plan entry — real simulation output, so correctness checks against
// the local reference still hold.
func realResult(want map[exp.Key]pipeline.Result, k exp.Key) *exp.CachedResult {
	res := want[k]
	return &exp.CachedResult{Machine: k.Machine, Workload: k.Workload, R: res}
}

// TestGoodbyeMidBatchReassignsRemainder pins the elastic drain
// guarantee: a worker that says goodbye mid-batch keeps everything it
// already streamed, hands the unfinished remainder back without it
// counting as a failed attempt (MaxAttempts is 1 here — a counted
// requeue would abort the run), and the replacement worker — which joins
// the fleet mid-run through Options.Join — receives and finishes that
// remainder.
func TestGoodbyeMidBatchReassignsRemainder(t *testing.T) {
	jobs := testJobs(8)
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// The leaver: a scripted worker that takes the whole plan as one
	// batch, delivers exactly one real result, then says goodbye.
	coordEnd, workerEnd := dist.Pipe()
	saidGoodbye := make(chan struct{})
	go func() {
		m, err := dist.ReadMessage(workerEnd)
		if err != nil || m.Type != dist.TypeInit {
			return
		}
		if err := dist.WriteMessage(workerEnd, &dist.Message{Type: dist.TypeReady}); err != nil {
			return
		}
		if m, err = dist.ReadMessage(workerEnd); err != nil || m.Type != dist.TypeBatch {
			return
		}
		first := exp.KeyOf(m.Jobs[0])
		if err := dist.WriteMessage(workerEnd, &dist.Message{Type: dist.TypeResult, Result: realResult(want, first)}); err != nil {
			return
		}
		if err := dist.WriteMessage(workerEnd, &dist.Message{Type: dist.TypeGoodbye}); err != nil {
			return
		}
		close(saidGoodbye)
		dist.ReadMessage(workerEnd) // wait for the coordinator to close us
	}()
	leaver := dist.Worker{Name: "leaver", RW: coordEnd}

	// The joiner arrives through the join channel only after the goodbye
	// is on the wire: its work can only be the requeued remainder.
	var joinerRuns atomic.Int64
	join := make(chan dist.Worker)
	go func() {
		<-saidGoodbye
		w, _ := startWorker(t, "joiner", dist.OnSimulate(func(exp.Key) { joinerRuns.Add(1) }))
		join <- w
	}()

	cache := exp.NewCache()
	err = dist.Run(plan, []dist.Worker{leaver}, cache, dist.Options{
		Parallel:    len(plan), // one batch
		MaxAttempts: 1,
		Join:        join,
		Log:         obs.TestLogger(t),
	})
	if err != nil {
		t.Fatalf("run with a goodbye mid-batch must succeed, got: %v", err)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		res, ok := cache.Lookup(k)
		if !ok {
			t.Fatalf("plan entry %d (%+v) missing after goodbye reassignment", i, k)
		}
		if res != want[k] {
			t.Errorf("plan entry %d: result diverged after goodbye reassignment", i)
		}
	}
	if got := joinerRuns.Load(); got != int64(len(plan))-1 {
		t.Errorf("joiner simulated %d jobs, want %d (the goodbye'd batch's remainder)", got, len(plan)-1)
	}
}

// TestLegacyResultFrameMerges pins wire compatibility with workers built
// before result frames lost their wall-time field: a scripted worker
// streams every result with an "elapsed_ns" member, and the coordinator
// still merges them all, unchanged.
func TestLegacyResultFrameMerges(t *testing.T) {
	jobs := testJobs(3)
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}

	coordEnd, workerEnd := dist.Pipe()
	go func() {
		m, err := dist.ReadMessage(workerEnd)
		if err != nil || m.Type != dist.TypeInit {
			return
		}
		if err := dist.WriteMessage(workerEnd, &dist.Message{Type: dist.TypeReady}); err != nil {
			return
		}
		if m, err = dist.ReadMessage(workerEnd); err != nil || m.Type != dist.TypeBatch {
			return
		}
		for _, sj := range m.Jobs {
			res, err := json.Marshal(realResult(want, exp.KeyOf(sj)))
			if err != nil {
				t.Error(err)
				return
			}
			legacy := fmt.Sprintf(`{"type":%q,"result":%s,"elapsed_ns":1234}}`, dist.TypeResult, res[:len(res)-1])
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(legacy)))
			if _, err := workerEnd.Write(append(frame, legacy...)); err != nil {
				return
			}
		}
		if err := dist.WriteMessage(workerEnd, &dist.Message{Type: dist.TypeBatchDone, BatchID: m.BatchID}); err != nil {
			return
		}
		dist.ReadMessage(workerEnd) // wait for the coordinator to close us
	}()

	cache := exp.NewCache()
	err = dist.Run(plan, []dist.Worker{{Name: "legacy", RW: coordEnd}}, cache, dist.Options{
		Parallel: len(plan), // one batch
		Log:      obs.TestLogger(t),
	})
	if err != nil {
		t.Fatalf("run over legacy result frames: %v", err)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		if res, ok := cache.Lookup(k); !ok || res != want[k] {
			t.Errorf("plan entry %d: merged %+v (present %v), want %+v", i, res, ok, want[k])
		}
	}
}

// TestJoinIntoRunningDispatchReceivesWork pins the registration path
// end to end: a run may start with an empty fleet when Options.Join is
// set, and a worker that registers (the expd join handshake) and is fed
// through the channel mid-run receives the queued work and completes the
// run.
func TestJoinIntoRunningDispatchReceivesWork(t *testing.T) {
	jobs := testJobs(5)
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}

	join := make(chan dist.Worker)
	var runs atomic.Int64
	go func() {
		coordEnd, workerEnd := dist.Pipe()
		// The worker side of an elastic join: dial (a pipe here),
		// register, then serve. Its own goroutine, because the register
		// write on a synchronous pipe completes only when AcceptWorker
		// reads it.
		go func() {
			if err := dist.Register(workerEnd, "elastic-1"); err != nil {
				t.Error(err)
				return
			}
			dist.Serve(workerEnd, dist.OnSimulate(func(exp.Key) { runs.Add(1) }))
		}()
		w, err := dist.AcceptWorker(coordEnd, "fallback")
		if err != nil {
			t.Error(err)
			return
		}
		if w.Name != "elastic-1" {
			t.Errorf("accepted worker name = %q, want the registered name", w.Name)
		}
		join <- w
	}()

	cache := exp.NewCache()
	if err := dist.Run(plan, nil, cache, dist.Options{Join: join, Log: obs.TestLogger(t)}); err != nil {
		t.Fatalf("elastic run starting with an empty fleet: %v", err)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		res, ok := cache.Lookup(k)
		if !ok {
			t.Fatalf("plan entry %d missing", i)
		}
		if res != want[k] {
			t.Errorf("plan entry %d diverged", i)
		}
	}
	if got := runs.Load(); got != int64(len(plan)) {
		t.Errorf("joined worker simulated %d jobs, want all %d", got, len(plan))
	}
}

// TestAcceptWorkerRejectsSkewAndGarbage pins the register handshake: a
// joining worker with a mismatched protocol version is turned away with
// an error frame naming both versions, and a non-register first frame is
// rejected outright — before either reaches the dispatch loop.
func TestAcceptWorkerRejectsSkewAndGarbage(t *testing.T) {
	// The pipes are synchronous, so AcceptWorker runs in a goroutine
	// while this side plays the misbehaving joiner and reads the reply.
	accept := func(rw io.ReadWriteCloser) <-chan error {
		errc := make(chan error, 1)
		go func() {
			_, err := dist.AcceptWorker(rw, "fallback")
			errc <- err
		}()
		return errc
	}

	// v2, and the version just before this one (a v4 worker still sends
	// the cost_report frame v5 dropped).
	for _, old := range []int{2, dist.ProtoVersion - 1} {
		coordEnd, workerEnd := dist.Pipe()
		errc := accept(coordEnd)
		if err := dist.WriteMessage(workerEnd, &dist.Message{Type: dist.TypeRegister, Proto: old, Name: "old"}); err != nil {
			t.Fatal(err)
		}
		v := fmt.Sprintf("v%d", old)
		if m, rerr := dist.ReadMessage(workerEnd); rerr != nil || m.Type != dist.TypeError ||
			!strings.Contains(m.Err, v) || !strings.Contains(m.Err, fmt.Sprintf("v%d", dist.ProtoVersion)) {
			t.Errorf("skewed joiner got (%+v, %v), want an error frame naming both versions", m, rerr)
		}
		if err := <-errc; err == nil || !strings.Contains(err.Error(), v) || !strings.Contains(err.Error(), fmt.Sprintf("v%d", dist.ProtoVersion)) {
			t.Errorf("%s register accepted or badly reported: %v", v, err)
		}
	}

	c2, w2 := dist.Pipe()
	errc := accept(c2)
	if err := dist.WriteMessage(w2, &dist.Message{Type: dist.TypeReady}); err != nil {
		t.Fatal(err)
	}
	if m, rerr := dist.ReadMessage(w2); rerr != nil || m.Type != dist.TypeError {
		t.Errorf("garbage joiner got (%+v, %v), want an error frame", m, rerr)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "register") {
		t.Errorf("non-register first frame accepted: %v", err)
	}
}

// TestAuthRejectedBeforeAnyFrame pins the token guarantee of the
// satellite checklist: a peer with a wrong or missing token is rejected
// by the preamble check itself — VerifyAuth fails before ReadMessage
// ever runs, so no protocol frame from an unauthenticated peer is
// processed, and the peer never sees a ready reply.
func TestAuthRejectedBeforeAnyFrame(t *testing.T) {
	serve := func(workerEnd io.ReadWriteCloser) <-chan error {
		errc := make(chan error, 1)
		go func() {
			if err := dist.VerifyAuth(workerEnd, "fleet-secret"); err != nil {
				workerEnd.Close()
				errc <- err
				return
			}
			errc <- dist.Serve(workerEnd)
		}()
		return errc
	}

	// Missing token: the dialer starts straight in with a protocol
	// frame, which can never parse as a preamble. The frame is padded
	// past the preamble length so the synchronous pipe delivers enough
	// bytes for the check to run at all.
	coordEnd, workerEnd := dist.Pipe()
	errc := serve(workerEnd)
	go dist.WriteMessage(coordEnd, &dist.Message{Type: dist.TypeInit, Proto: dist.ProtoVersion, Name: strings.Repeat("x", 64)})
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "token") {
		t.Errorf("frame-as-preamble error = %v, want a token rejection", err)
	}
	if _, err := dist.ReadMessage(coordEnd); err == nil {
		t.Error("unauthenticated peer received a protocol reply")
	}

	// Wrong token: same shape, constant-time compare fails.
	c2, w2 := dist.Pipe()
	errc = serve(w2)
	if err := dist.WriteAuth(c2, "wrong-secret"); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "token") {
		t.Errorf("wrong-token error = %v, want a token rejection", err)
	}

	// Correct token: the handshake proceeds.
	c3, w3 := dist.Pipe()
	errc = serve(w3)
	if err := dist.WriteAuth(c3, "fleet-secret"); err != nil {
		t.Fatal(err)
	}
	if err := dist.WriteMessage(c3, &dist.Message{Type: dist.TypeInit, Proto: dist.ProtoVersion, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if m, err := dist.ReadMessage(c3); err != nil || m.Type != dist.TypeReady {
		t.Fatalf("authenticated handshake reply = (%+v, %v), want ready", m, err)
	}
	c3.Close()
	<-errc
}

// TestHeartbeatRunAndMetrics pins the protocol-v4 happy path plus the
// telemetry contract in one end-to-end run: with heartbeats beaconing
// faster than the worker's grace window, a run completes with correct
// results, the coordinator registry shows the dispatch shape (joins,
// merges, drained queue), and the worker registry shows heartbeat age
// and its simulation counters.
func TestHeartbeatRunAndMetrics(t *testing.T) {
	jobs := testJobs(6)
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}

	wreg := obs.NewRegistry()
	w, serveErr := startWorker(t, "w0", dist.WithMetrics(wreg))
	creg := obs.NewRegistry()
	cache := exp.NewCache()
	err = dist.Run(plan, []dist.Worker{w}, cache, dist.Options{
		Parallel:  1,
		Heartbeat: 20 * time.Millisecond,
		Metrics:   creg,
		Log:       obs.TestLogger(t),
	})
	if err != nil {
		t.Fatalf("heartbeat-enabled run failed: %v", err)
	}
	if serr := <-serveErr; serr != nil {
		t.Errorf("worker Serve under heartbeats: %v", serr)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		res, ok := cache.Lookup(k)
		if !ok {
			t.Fatalf("plan entry %d missing", i)
		}
		if res != want[k] {
			t.Errorf("plan entry %d diverged under heartbeats", i)
		}
	}

	// Coordinator-side telemetry: reading a metric back is the same
	// get-or-create call sites use.
	if got := creg.Counter("dist_worker_joins_total", "").Value(); got != 1 {
		t.Errorf("dist_worker_joins_total = %d, want 1", got)
	}
	if got := creg.Counter("dist_results_merged_total", "").Value(); got != int64(len(plan)) {
		t.Errorf("dist_results_merged_total = %d, want %d", got, len(plan))
	}
	if got := creg.Counter("dist_worker_results_total", "", "worker", "w0").Value(); got != int64(len(plan)) {
		t.Errorf(`dist_worker_results_total{worker="w0"} = %d, want %d`, got, len(plan))
	}
	if got := creg.Counter("dist_dispatched_batches_total", "").Value(); got < 1 {
		t.Errorf("dist_dispatched_batches_total = %d, want >= 1", got)
	}
	if got := creg.Gauge("dist_queue_depth", "").Value(); got != 0 {
		t.Errorf("dist_queue_depth = %v after the run, want 0", got)
	}
	if got := creg.Gauge("dist_inflight_jobs", "").Value(); got != 0 {
		t.Errorf("dist_inflight_jobs = %v after the run, want 0", got)
	}

	// Worker-side telemetry: heartbeat age gauge and the instrumented
	// per-connection cache.
	var buf bytes.Buffer
	if err := wreg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dist_heartbeat_age_seconds", "exp_cache_misses_total", "exp_simulations_total"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("worker registry missing %s:\n%s", name, buf.String())
		}
	}
	if got := wreg.Counter("exp_cache_misses_total", "").Value(); got != int64(len(plan)) {
		t.Errorf("worker exp_cache_misses_total = %d, want %d", got, len(plan))
	}
}

// TestHeartbeatLossDetected pins the dead-coordinator fast path: a
// coordinator that announces a heartbeat interval and then goes silent —
// connection still open, so no EOF ever arrives — is declared lost
// within the grace window, with ErrCoordinatorLost, instead of the
// worker hanging until TCP keepalive (minutes) or forever on a pipe.
func TestHeartbeatLossDetected(t *testing.T) {
	coordEnd, workerEnd := dist.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- dist.Serve(workerEnd) }()
	if err := dist.WriteMessage(coordEnd, &dist.Message{
		Type: dist.TypeInit, Proto: dist.ProtoVersion, Parallel: 1,
		HeartbeatNS: int64(30 * time.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	if m, err := dist.ReadMessage(coordEnd); err != nil || m.Type != dist.TypeReady {
		t.Fatalf("handshake reply = (%+v, %v)", m, err)
	}
	// Prove the liveness path: one real heartbeat is consumed silently.
	if err := dist.WriteMessage(coordEnd, &dist.Message{Type: dist.TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	// Then total silence with the connection held open.
	select {
	case err := <-serveErr:
		if !errors.Is(err, dist.ErrCoordinatorLost) {
			t.Errorf("Serve error = %v, want ErrCoordinatorLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker never declared the silent coordinator lost")
	}
	coordEnd.Close()
}

// TestMaxIdleGivesUp pins the elastic give-up knob: a run whose fleet
// stays empty for the whole MaxIdle window fails with ErrFleetIdle (a
// distinct, matchable error) instead of waiting forever for a join that
// never comes.
func TestMaxIdleGivesUp(t *testing.T) {
	plan, err := exp.Plan(testJobs(3))
	if err != nil {
		t.Fatal(err)
	}
	join := make(chan dist.Worker) // never delivers
	start := time.Now()
	err = dist.Run(plan, nil, exp.NewCache(), dist.Options{
		Join:    join,
		MaxIdle: 80 * time.Millisecond,
		Log:     obs.TestLogger(t),
	})
	if !errors.Is(err, dist.ErrFleetIdle) {
		t.Fatalf("idle elastic run error = %v, want ErrFleetIdle", err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("gave up after %v, before the %v window", elapsed, 80*time.Millisecond)
	}
	if !strings.Contains(err.Error(), "3 jobs outstanding") {
		t.Errorf("idle error lacks the outstanding-job count: %v", err)
	}
}

// TestMaxIdleDisarmedByJoin pins the other half of the knob: a worker
// arriving inside the window stands the give-up timer down and the run
// completes normally.
func TestMaxIdleDisarmedByJoin(t *testing.T) {
	jobs := testJobs(4)
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	join := make(chan dist.Worker)
	go func() {
		time.Sleep(30 * time.Millisecond)
		w, _ := startWorker(t, "late")
		join <- w
	}()
	cache := exp.NewCache()
	if err := dist.Run(plan, nil, cache, dist.Options{
		Join:    join,
		MaxIdle: 2 * time.Second,
		Log:     obs.TestLogger(t),
	}); err != nil {
		t.Fatalf("run with an in-window join must succeed, got: %v", err)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		if res, ok := cache.Lookup(k); !ok || res != want[k] {
			t.Fatalf("plan entry %d missing or diverged after late join", i)
		}
	}
}
