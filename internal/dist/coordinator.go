package dist

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"time"

	"icfp/internal/exp"
	"icfp/internal/obs"
	"icfp/internal/spec"
)

// Dispatch defaults.
const (
	// DefaultMaxAttempts caps how many times one job may be dispatched
	// before the run fails: transient worker crashes are survivable, a
	// job that kills every worker that touches it is not. Clean goodbyes
	// do not count against it.
	DefaultMaxAttempts = 3
	// defaultPoolWidth is the pool width batches are filled to when
	// Options.Parallel leaves each worker its own GOMAXPROCS, which the
	// coordinator cannot see: it assumes a generously wide host.
	defaultPoolWidth = 16
)

// Options configure a coordinator run.
type Options struct {
	// Parallel is each worker's internal pool size (values below 1 mean
	// the worker's GOMAXPROCS).
	Parallel int
	// MaxAttempts caps dispatch attempts per job (default
	// DefaultMaxAttempts). Clean goodbyes do not count.
	MaxAttempts int
	// FrameTimeout bounds the silence between a worker's frames while a
	// dispatch is in flight. A worker that stays connected but stops
	// responding (wedged host, SIGSTOP) is declared dead on expiry and
	// its batch reassigned, exactly like a transport failure. It must
	// comfortably exceed one simulation's duration — results stream per
	// simulation, so that is the longest legitimate silence. Applies
	// only to transports with read deadlines (TCP, test pipes).
	// Zero disables the timeout.
	FrameTimeout time.Duration
	// Join delivers workers that join the fleet mid-run (elastic mode:
	// cmd/expq -accept-workers feeds registered dialers through here). A
	// joined worker is handshaken and enters the work-stealing loop
	// immediately. With Join set, a run whose last worker dies waits for
	// the next join instead of failing — the operator decides when to
	// give up (with a store, every merged result is already on disk). Closing the
	// channel restores fail-when-all-workers-die semantics.
	Join <-chan Worker
	// Heartbeat, when positive, makes the coordinator beacon a
	// heartbeat frame to every worker on this interval (protocol v4).
	// Idle workers use it to detect a vanished coordinator within a few
	// intervals instead of waiting out TCP keepalive; see
	// ErrCoordinatorLost. Zero disables heartbeats.
	Heartbeat time.Duration
	// MaxIdle, when positive, bounds how long an elastic run (Options.
	// Join set) tolerates having zero workers while jobs are still
	// outstanding. On expiry the run fails with ErrFleetIdle — the
	// give-up knob for fleets whose workers may never come back. Zero
	// means wait forever (the operator decides via interrupt).
	MaxIdle time.Duration
	// Log, when set, receives dispatch diagnostics as structured slog
	// records using the shared obs key vocabulary (worker, jobs, cause,
	// ...). Results themselves are silent.
	Log *slog.Logger
	// Metrics, when set, receives the coordinator's dispatch telemetry:
	// queue depth, in-flight jobs, fleet size, per-worker batch and
	// result counters, requeues and retirements. A nil registry costs
	// one nil check per event.
	Metrics *obs.Registry
	// OnMerge, when set, is called after each result lands in the cache
	// (so a Lookup from inside the hook succeeds). Calls may arrive
	// concurrently from different workers' dispatch loops; the hook is
	// the service layer's per-job progress signal (internal/serve).
	OnMerge func(exp.Key)
}

// readDeadliner is the optional transport capability FrameTimeout needs.
type readDeadliner interface{ SetReadDeadline(time.Time) error }

// readFrame reads one frame, bounding the wait by opts.FrameTimeout when
// the transport supports deadlines.
func readFrame(rw io.ReadWriteCloser, opts *Options) (*Message, error) {
	if opts.FrameTimeout > 0 {
		if rd, ok := rw.(readDeadliner); ok {
			rd.SetReadDeadline(time.Now().Add(opts.FrameTimeout))
			defer rd.SetReadDeadline(time.Time{})
		}
	}
	return ReadMessage(rw)
}

// event emits one structured dispatch diagnostic to Options.Log, when
// set. Keys come from the shared obs vocabulary so the coordinator, the
// workers, and the CLIs all log the same field names.
func (o *Options) event(msg string, kv ...any) {
	if o.Log != nil {
		o.Log.Info(msg, kv...)
	}
}

// distMetrics is the coordinator's telemetry, carved from
// Options.Metrics once per run. Every field is nil when the registry is
// nil, and every obs method on a nil metric is a no-op — the
// uninstrumented dispatch path pays one nil check per event.
type distMetrics struct {
	reg        *obs.Registry
	queueDepth *obs.Gauge   // dist_queue_depth
	inflight   *obs.Gauge   // dist_inflight_jobs
	active     *obs.Gauge   // dist_active_workers
	batches    *obs.Counter // dist_dispatched_batches_total
	merged     *obs.Counter // dist_results_merged_total
	requeued   *obs.Counter // dist_requeued_jobs_total
	retired    *obs.Counter // dist_retired_workers_total
	joins      *obs.Counter // dist_worker_joins_total
	goodbyes   *obs.Counter // dist_worker_goodbyes_total
}

func newDistMetrics(reg *obs.Registry) *distMetrics {
	return &distMetrics{
		reg:        reg,
		queueDepth: reg.Gauge("dist_queue_depth", "jobs awaiting dispatch"),
		inflight:   reg.Gauge("dist_inflight_jobs", "jobs handed to a worker, neither merged nor requeued"),
		active:     reg.Gauge("dist_active_workers", "workers admitted and not retired"),
		batches:    reg.Counter("dist_dispatched_batches_total", "batches handed to workers"),
		merged:     reg.Counter("dist_results_merged_total", "results merged into the coordinator cache"),
		requeued:   reg.Counter("dist_requeued_jobs_total", "jobs returned to the queue after a crash or goodbye"),
		retired:    reg.Counter("dist_retired_workers_total", "workers that left the fleet (any cause)"),
		joins:      reg.Counter("dist_worker_joins_total", "workers admitted to the fleet"),
		goodbyes:   reg.Counter("dist_worker_goodbyes_total", "workers that left cleanly with a goodbye frame"),
	}
}

// syncLocked refreshes the queue-shape gauges; the caller holds d.mu.
func (m *distMetrics) syncLocked(d *dispatcher) {
	m.queueDepth.Set(float64(len(d.ready)))
	m.inflight.Set(float64(d.inflight))
	m.active.Set(float64(d.active))
}

// pjob is one plan job moving through the dispatcher: its spec, its
// cache key, its workload group, and how many dispatches have failed
// on it.
type pjob struct {
	sj  spec.Job
	key exp.Key
	// group is the arena identity of the job's workload (its base
	// canonical encoding): jobs sharing it share one trace generation
	// on whichever worker runs them together.
	group    string
	attempts int
}

// dispatcher is the coordinator's shared state: the ready queue, the
// in-flight count, and fleet membership. One mutex guards all of it;
// worker goroutines block on cond while the queue is empty but work is
// still in flight (a crash or goodbye may requeue).
type dispatcher struct {
	mu   sync.Mutex
	cond *sync.Cond

	ready    []*pjob // jobs awaiting dispatch
	inflight int     // jobs handed to a worker, neither merged nor requeued
	batches  int     // dispatched batches whose runBatch has not returned
	batchSeq int

	stopped   bool // run over (success or failure): workers must exit
	completed bool
	failure   error
	done      chan struct{}
	doneOnce  sync.Once

	active     int  // workers currently admitted and not retired
	joinable   bool // an open Join channel may still deliver workers
	idleGen    int  // bumped on every admit; stale idle timers stand down
	workerErrs []string

	met *distMetrics

	transports []io.Closer // every admitted transport, closed when the run ends
	cache      *exp.Cache
	opts       *Options
	wg         sync.WaitGroup
}

// Run shards the plan's self-describing jobs across the workers and
// merges every completed result into cache. Jobs whose key the cache
// already has (preloaded from a result store) are not dispatched at all.
// Dispatch is work-stealing — idle workers pull the next batch, so shard
// sizes adapt to worker speed — and, by default, workload-affine: a
// batch carries whole workload groups, so each trace is generated on one
// worker (see takeBatchLocked). The fleet is elastic: workers arriving on
// Options.Join enter the loop mid-run, a worker that sends goodbye
// leaves cleanly (streamed results kept, unfinished remainder requeued,
// no attempt counted), and a worker whose transport fails mid-batch has
// the batch's unfinished remainder requeued for the survivors, up to
// MaxAttempts dispatches per job. Worker-side errors (invalid specs,
// simulation failures) abort the run with the worker's context attached.
// Run closes every worker transport before returning.
func Run(plan []spec.Job, workers []Worker, cache *exp.Cache, opts Options) error {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}

	d := &dispatcher{
		done:     make(chan struct{}),
		joinable: opts.Join != nil,
		cache:    cache,
		opts:     &opts,
		met:      newDistMetrics(opts.Metrics),
	}
	d.cond = sync.NewCond(&d.mu)

	first := make(map[string]int) // group -> rank of its first appearance
	for _, sj := range plan {
		k := exp.KeyOf(sj)
		if _, ok := cache.Lookup(k); ok {
			continue
		}
		g := sj.Workload.Base().Canonical()
		if _, ok := first[g]; !ok {
			first[g] = len(first)
		}
		d.ready = append(d.ready, &pjob{sj: sj, key: k, group: g})
	}
	missing := len(d.ready)
	if missing == 0 {
		CloseAll(workers)
		return nil
	}
	if len(workers) == 0 && opts.Join == nil {
		return fmt.Errorf("dist: %d jobs to simulate but no workers", missing)
	}
	// Workload-major, each group in plan order: takeBatchLocked cuts
	// batches at group boundaries.
	slices.SortStableFunc(d.ready, func(a, b *pjob) int { return cmp.Compare(first[a.group], first[b.group]) })
	d.mu.Lock()
	d.met.syncLocked(d)
	d.mu.Unlock()
	opts.event("dispatch started", obs.KeyJobs, missing, obs.KeyWorkers, len(workers), obs.KeyElastic, opts.Join != nil)

	for _, w := range workers {
		d.admit(w)
	}
	if opts.Join != nil {
		d.wg.Add(1)
		go d.watchJoins(opts.Join)
		if len(workers) == 0 {
			// Starting with an empty elastic fleet: the give-up clock
			// runs from the start, not only after a worker leaves.
			d.armIdleTimer()
		}
	}

	<-d.done
	// Unblock any worker goroutine still parked in a read, then wait so
	// no goroutine outlives the run.
	d.closeTransports()
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failure
}

// admit adds one worker to the fleet and starts its dispatch loop. Any
// armed idle timer stands down: bumping the generation invalidates it.
func (d *dispatcher) admit(w Worker) {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		w.RW.Close()
		return
	}
	d.active++
	d.idleGen++
	d.transports = append(d.transports, w.RW)
	d.met.joins.Inc()
	d.met.syncLocked(d)
	d.mu.Unlock()
	d.wg.Add(1)
	go d.runWorker(w)
}

// watchJoins feeds mid-run arrivals into the fleet until the run ends or
// the channel closes.
func (d *dispatcher) watchJoins(join <-chan Worker) {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case w, ok := <-join:
			if !ok {
				d.mu.Lock()
				d.joinable = false
				starved := d.active == 0 && d.remainingLocked() > 0
				d.mu.Unlock()
				if starved {
					d.fail(fmt.Errorf("dist: join channel closed with no workers and %d jobs outstanding: %s",
						d.remaining(), d.joinErrs()))
				}
				return
			}
			d.opts.event("worker joined", obs.KeyWorker, w.Name)
			d.admit(w)
		}
	}
}

// remainingLocked reports the undone job count; the caller holds mu.
// remaining is the self-locking variant.
func (d *dispatcher) remainingLocked() int {
	return len(d.ready) + d.inflight
}

func (d *dispatcher) remaining() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remainingLocked()
}

// ErrFleetIdle reports that an elastic run had zero workers for the
// whole Options.MaxIdle window with jobs still outstanding and gave up.
// Distinct from the all-workers-failed error of inelastic runs: the
// fleet was allowed to refill and nothing came.
var ErrFleetIdle = errors.New("dist: elastic fleet idle past the give-up window")

// armIdleTimer starts the MaxIdle give-up clock if the fleet is
// currently empty with work outstanding and a join could still save it.
// The timer captures the idle generation; an admit in the window bumps
// the generation and the expired timer stands down.
func (d *dispatcher) armIdleTimer() {
	if d.opts.MaxIdle <= 0 {
		return
	}
	d.mu.Lock()
	if d.stopped || d.active > 0 || !d.joinable || d.remainingLocked() == 0 {
		d.mu.Unlock()
		return
	}
	gen := d.idleGen
	d.mu.Unlock()
	time.AfterFunc(d.opts.MaxIdle, func() {
		d.mu.Lock()
		expired := !d.stopped && d.active == 0 && d.idleGen == gen && d.remainingLocked() > 0
		outstanding := d.remainingLocked()
		d.mu.Unlock()
		if expired {
			d.fail(fmt.Errorf("%w: no workers for %v with %d jobs outstanding: %s",
				ErrFleetIdle, d.opts.MaxIdle, outstanding, d.joinErrs()))
		}
	})
}

// fail records the run's failure and wakes everyone. A fatal error from
// a straggling worker (say, a slow handshake reporting skew) after the
// survivors already finished every batch must not turn a complete run
// into a failure.
func (d *dispatcher) fail(err error) {
	d.mu.Lock()
	if d.failure == nil && !d.completed {
		d.failure = err
	}
	d.stopped = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.doneOnce.Do(func() { close(d.done) })
}

// finish marks the run complete and wakes everyone.
func (d *dispatcher) finish() {
	d.mu.Lock()
	d.completed = true
	d.stopped = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.doneOnce.Do(func() { close(d.done) })
}

// closeTransports closes every admitted worker transport (idempotent).
func (d *dispatcher) closeTransports() {
	d.mu.Lock()
	ts := append([]io.Closer(nil), d.transports...)
	d.mu.Unlock()
	for _, t := range ts {
		t.Close()
	}
}

// next blocks until there is a batch to dispatch, returning nil when the
// run is over. The returned jobs are moved from ready to in-flight.
func (d *dispatcher) next() []*pjob {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.stopped {
			return nil
		}
		if len(d.ready) > 0 {
			batch := d.takeBatchLocked()
			d.inflight += len(batch)
			d.batches++
			d.met.batches.Inc()
			d.met.syncLocked(d)
			return batch
		}
		if d.inflight == 0 && d.batches == 0 {
			// Nothing queued, nothing in flight: the run is complete.
			// finish() needs the lock we hold, so release around it.
			d.mu.Unlock()
			d.finish()
			d.mu.Lock()
			return nil
		}
		d.cond.Wait()
	}
}

// endBatch accounts a dispatched batch concluding (batch_done read, or
// its error path entered) and completes the run when it was the last
// loose end. Completion deliberately waits for every batch to conclude —
// not merely for every job to merge — so the trailing batch_done frame
// is consumed before Run tears the transports down
// and a clean run stays log-silent on both sides.
func (d *dispatcher) endBatch() {
	d.mu.Lock()
	d.batches--
	done := d.inflight == 0 && len(d.ready) == 0 && d.batches == 0 && !d.stopped
	d.mu.Unlock()
	if done {
		d.finish()
	}
}

// takeBatchLocked forms the next batch from the head of the ready queue,
// which Run orders workload-major. It takes whole workload groups until
// the batch fills the worker's pool (Options.Parallel, or
// defaultPoolWidth): a worker runs each batch on one arena, so a group
// dispatched together generates its trace once, and a group split
// across batches is generated once per batch. A group is split
// only past the guided self-scheduling share ceil(len(ready)/active)
// (Polychronopoulos & Kuck, IEEE TC 1987), never below the pool width,
// so a plan with fewer workloads than workers still spreads across the
// fleet.
func (d *dispatcher) takeBatchLocked() []*pjob {
	width := d.opts.Parallel
	if width < 1 {
		width = defaultPoolWidth
	}
	active := max(d.active, 1)
	limit := min(len(d.ready), max(width, (len(d.ready)+active-1)/active))
	n := 0
	for n < limit && n < width {
		g := d.ready[n].group
		for n < limit && d.ready[n].group == g {
			n++
		}
	}
	batch := d.ready[:n]
	d.ready = d.ready[n:]
	return batch
}

// requeue returns a batch's unfinished jobs to the ready queue. When
// counted (crash paths), each job's attempt count rises and hitting
// MaxAttempts fails the run; goodbyes requeue uncounted.
func (d *dispatcher) requeue(owed []*pjob, counted bool, worker string, cause error) {
	if len(owed) == 0 {
		return
	}
	if counted {
		for _, pj := range owed {
			pj.attempts++
			if pj.attempts >= d.opts.MaxAttempts {
				d.fail(fmt.Errorf("dist: job (%s | %s) failed on its %dth dispatch, last worker %s: %w",
					pj.key.Machine, pj.key.Workload, pj.attempts, worker, cause))
				return
			}
		}
	}
	d.mu.Lock()
	d.inflight -= len(owed)
	d.ready = append(d.ready, owed...)
	d.met.requeued.Add(int64(len(owed)))
	d.met.syncLocked(d)
	d.cond.Broadcast()
	d.mu.Unlock()
}

// merged accounts one in-flight job landing in the cache. Completion is
// detected when its batch concludes (endBatch), not here.
func (d *dispatcher) merged() {
	d.mu.Lock()
	d.inflight--
	d.met.merged.Inc()
	d.met.syncLocked(d)
	d.mu.Unlock()
}

// retire removes a worker from the fleet. Its transport is closed — that
// is also the leave signal a goodbye'd Serve loop waits for — and if it
// was the last worker with work still outstanding and no join can
// replace it, the run fails with every worker's exit context.
func (d *dispatcher) retire(w Worker, cause string) {
	w.RW.Close()
	d.mu.Lock()
	d.active--
	d.met.retired.Inc()
	d.met.syncLocked(d)
	if cause != "" {
		d.workerErrs = append(d.workerErrs, fmt.Sprintf("%s: %s", w.Name, cause))
	}
	starved := d.active == 0 && d.remainingLocked() > 0 && !d.joinable && !d.stopped
	d.mu.Unlock()
	if starved {
		d.fail(fmt.Errorf("dist: all workers failed with %d jobs outstanding: %s",
			d.remaining(), d.joinErrs()))
	}
	// An elastic fleet that just went empty starts the give-up clock.
	d.armIdleTimer()
}

// runOver reports whether the run has already ended (success or
// failure) — transport errors after that point are teardown, not news.
func (d *dispatcher) runOver() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stopped
}

// joinErrs summarizes the recorded worker exits for diagnostics.
func (d *dispatcher) joinErrs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.workerErrs) == 0 {
		return "no worker errors recorded"
	}
	return strings.Join(d.workerErrs, "; ")
}

// coordConn serializes the coordinator's outbound frames to one worker:
// batch frames come from the dispatch loop while heartbeat frames come
// from the beacon goroutine, and a frame must never interleave with
// another mid-write. Reads stay unserialized — only the dispatch loop
// reads.
type coordConn struct {
	rw io.ReadWriteCloser
	mu sync.Mutex
}

func (c *coordConn) send(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return WriteMessage(c.rw, m)
}

// beat beacons heartbeat frames to one worker every interval until the
// run ends, the worker's loop stops it, or the transport dies (the
// dispatch loop notices the death on its own; the beacon just stops).
func (d *dispatcher) beat(conn *coordConn, stop <-chan struct{}) {
	t := time.NewTicker(d.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-d.done:
			return
		case <-t.C:
			if conn.send(&Message{Type: TypeHeartbeat}) != nil {
				return
			}
		}
	}
}

// runWorker is one worker's dispatch loop: handshake, then pull batches
// until the run ends or the worker leaves (goodbye) or dies (transport
// failure). Fatal worker-reported errors abort the whole run.
func (d *dispatcher) runWorker(w Worker) {
	defer d.wg.Done()
	conn := &coordConn{rw: w.RW}
	if err := initWorker(w, conn, d.opts); err != nil {
		var fatal *fatalError
		if errors.As(err, &fatal) {
			d.fail(fmt.Errorf("dist: worker %s: %w", w.Name, err))
			d.retire(w, "")
			return
		}
		d.opts.event("worker handshake failed", obs.KeyWorker, w.Name, obs.KeyCause, err)
		d.retire(w, fmt.Sprintf("handshake: %v", err))
		return
	}
	if d.opts.Heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go d.beat(conn, stop)
	}
	batchCount := d.met.reg.Counter("dist_worker_batches_total", "batches dispatched per worker", "worker", w.Name)
	for {
		batch := d.next()
		if batch == nil {
			d.retire(w, "")
			return
		}
		batchCount.Inc()
		owed, err := d.runBatch(w, conn, batch)
		// The batch has concluded one way or another; owed jobs are still
		// accounted in-flight until requeue moves them back, so this
		// cannot complete a run that still owes work.
		d.endBatch()
		switch {
		case err == nil:
			continue
		case errors.Is(err, errGoodbye):
			d.opts.event("worker goodbye", obs.KeyWorker, w.Name, obs.KeyJobs, len(owed))
			d.met.goodbyes.Inc()
			d.requeue(owed, false, w.Name, err)
			d.retire(w, "")
			return
		default:
			var fatal *fatalError
			if errors.As(err, &fatal) {
				d.fail(fmt.Errorf("dist: worker %s: %w", w.Name, err))
				d.retire(w, "")
				return
			}
			if d.runOver() {
				// The run completed on this batch's last streamed result
				// and Run closed the transports before the trailing
				// batch_done arrived — teardown, not a worker death.
				d.retire(w, "")
				return
			}
			// Transport-level failure: the worker is gone. Requeue
			// whatever the batch still owes and retire this worker.
			d.opts.event("worker died", obs.KeyWorker, w.Name, obs.KeyJobs, len(owed), obs.KeyCause, err)
			d.requeue(owed, true, w.Name, err)
			d.retire(w, err.Error())
			return
		}
	}
}

// fatalError marks a worker-reported protocol or simulation error:
// deterministic, so retrying it on another worker would only fail again.
type fatalError struct{ msg string }

func (e *fatalError) Error() string { return e.msg }

// errGoodbye marks a clean worker departure mid-batch.
var errGoodbye = errors.New("worker left the fleet")

// initWorker performs the handshake: protocol version, the worker's
// pool size, and the heartbeat interval this coordinator will beacon
// on. There is no job-table cross-check — batches are self-describing,
// so the worker needs no prior copy of the plan.
func initWorker(w Worker, conn *coordConn, opts *Options) error {
	init := &Message{Type: TypeInit, Proto: ProtoVersion, Parallel: opts.Parallel, HeartbeatNS: int64(opts.Heartbeat)}
	if err := conn.send(init); err != nil {
		return err
	}
	m, err := readFrame(w.RW, opts)
	if err != nil {
		return err
	}
	switch m.Type {
	case TypeReady:
		return nil
	case TypeError:
		return &fatalError{m.Err}
	default:
		return &fatalError{fmt.Sprintf("handshake: got %q frame, want %q", m.Type, TypeReady)}
	}
}

// runBatch dispatches one batch, merging its streamed results into the
// cache, until batch_done. On a
// transport failure or goodbye it returns the jobs still owed, in
// dispatch order, for requeueing; worker-reported errors come back as
// fatalError.
func (d *dispatcher) runBatch(w Worker, conn *coordConn, batch []*pjob) (owed []*pjob, err error) {
	d.mu.Lock()
	d.batchSeq++
	id := d.batchSeq
	d.mu.Unlock()
	resultCount := d.met.reg.Counter("dist_worker_results_total", "results merged per worker", "worker", w.Name)

	jobs := make([]spec.Job, len(batch))
	remaining := make(map[exp.Key]*pjob, len(batch))
	for i, pj := range batch {
		jobs[i] = pj.sj
		remaining[pj.key] = pj
	}
	still := func() []*pjob {
		var out []*pjob
		for _, pj := range batch {
			if _, ok := remaining[pj.key]; ok {
				out = append(out, pj)
			}
		}
		return out
	}
	if err := conn.send(&Message{Type: TypeBatch, BatchID: id, Jobs: jobs}); err != nil {
		return still(), err
	}
	for {
		m, err := readFrame(w.RW, d.opts)
		if err != nil {
			return still(), err
		}
		switch m.Type {
		case TypeResult:
			if m.Result == nil {
				return still(), &fatalError{"result frame without a payload"}
			}
			d.cache.AddResults([]exp.CachedResult{*m.Result})
			k := exp.Key{Machine: m.Result.Machine, Workload: m.Result.Workload}
			if _, ok := remaining[k]; ok {
				delete(remaining, k)
				d.merged()
				resultCount.Inc()
				if d.opts.OnMerge != nil {
					d.opts.OnMerge(k)
				}
			}
		case TypeGoodbye:
			return still(), errGoodbye
		case TypeBatchDone:
			if m.BatchID != id {
				return still(), &fatalError{fmt.Sprintf("batch_done for batch %d while %d was in flight", m.BatchID, id)}
			}
			if rest := still(); len(rest) > 0 {
				// A worker that claims completion without delivering is
				// broken, but the work itself may succeed elsewhere.
				return rest, fmt.Errorf("batch %d reported done with %d results missing", id, len(rest))
			}
			return nil, nil
		case TypeError:
			return still(), &fatalError{m.Err}
		default:
			return still(), &fatalError{fmt.Sprintf("unexpected %q frame during batch %d", m.Type, id)}
		}
	}
}
