package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/spec"
)

// fleetWorkers joined workers, each simulating on a pool of one.
const fleetWorkers = 2

// fleetJoinTimeout bounds how long a fleet run waits for its workers to
// dial in, and how long dist.Run tolerates an empty fleet.
const fleetJoinTimeout = 30 * time.Second

// fleetInst runs the fuzz corpus through dist: two in-process workers
// join the elastic way (dist.Register, dist.AcceptWorker, Options.Join)
// over loopback TCP for every run, so each run starts with cold worker
// caches, as a fresh `expd join` fleet does.
type fleetInst struct {
	suite spec.Suite
	plan  []spec.Job
	local []byte // the local 2-way pool's report, which every fleet run must reproduce
	ln    net.Listener
	a     *acc
}

func newFleet(c childConfig, tr *tracer) (instance, error) {
	sz := c.sizes()
	p := params(sz.fleetN, sz.fleetWarm)
	suite, err := registry.Describe("fuzz", p)
	if err != nil {
		return nil, err
	}
	plan, err := exp.Plan(suiteJobs(suite))
	if err != nil {
		return nil, err
	}
	fi := &fleetInst{suite: suite, plan: plan, a: newAcc()}
	// The set-up renders the plan locally: the reference every fleet run
	// is checked against, and in a traced run — where each layer call is
	// timed — the denominator of dist.fleet_over_local.
	if tr != nil {
		out, wall, err := tracedPlan(tr.root(0, 0), []string{"fuzz"}, p, fi.a)
		if err != nil {
			return nil, err
		}
		fi.local = out
		fi.a.set("dist.local_s", wall.Seconds())
	} else {
		var buf bytes.Buffer
		if _, err := registry.ReportSuite(&buf, suite, exp.Parallelism(poolSlots)); err != nil {
			return nil, err
		}
		fi.local = buf.Bytes()
	}
	if fi.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	return fi, nil
}

// fleetHooks observe one traced fleet run from outside: the
// coordinator's metrics registry, a byte count on the workers' conns,
// each worker's simulations, and every merge instant.
type fleetHooks struct {
	reg  *obs.Registry
	wire atomic.Int64
	sims [fleetWorkers]atomic.Int64

	mu     sync.Mutex
	merges []time.Time
}

func (h *fleetHooks) merged(exp.Key) {
	h.mu.Lock()
	h.merges = append(h.merges, time.Now())
	h.mu.Unlock()
}

// countingConn counts the bytes crossing a worker's connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// dispatch runs the plan on a freshly joined fleet and returns the
// filled cache. h, when non-nil, observes the run.
func (fi *fleetInst) dispatch(h *fleetHooks) (*exp.Cache, error) {
	if err := fi.ln.(*net.TCPListener).SetDeadline(time.Now().Add(fleetJoinTimeout)); err != nil {
		return nil, err
	}
	join := make(chan dist.Worker)
	over := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the coordinator's -accept-workers side
		defer wg.Done()
		for range fleetWorkers {
			conn, err := fi.ln.Accept()
			if err != nil {
				return
			}
			w, err := dist.AcceptWorker(conn, conn.RemoteAddr().String())
			if err != nil {
				continue
			}
			select {
			case join <- w:
			case <-over: // the run finished before this worker joined
				w.RW.Close()
			}
		}
	}()
	for k := range fleetWorkers {
		wg.Add(1)
		go func() { // one `expd join` round: dial, register, serve
			defer wg.Done()
			conn, err := net.Dial("tcp", fi.ln.Addr().String())
			if err != nil {
				return // the run fails on its own: dist.Run's MaxIdle
			}
			var rw net.Conn = conn
			var opts []dist.ServeOption
			if h != nil {
				rw = &countingConn{Conn: conn, n: &h.wire}
				opts = append(opts, dist.OnSimulate(func(exp.Key) { h.sims[k].Add(1) }))
			}
			defer rw.Close()
			if dist.Register(rw, fmt.Sprintf("w%d", k)) == nil {
				// Worker-side failures surface through dist.Run.
				_ = dist.Serve(rw, opts...)
			}
		}()
	}
	cache := exp.NewCache()
	opts := dist.Options{Join: join, Parallel: 1, MaxIdle: fleetJoinTimeout}
	if h != nil {
		opts.Metrics = h.reg
		opts.OnMerge = h.merged
	}
	err := dist.Run(fi.plan, nil, cache, opts)
	close(over)
	wg.Wait()
	return cache, err
}

// render renders the suite from a filled cache and checks it against
// the local reference.
func (fi *fleetInst) render(cache *exp.Cache) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := registry.ReportSuite(&buf, fi.suite, exp.WithCache(cache), exp.Parallelism(1)); err != nil {
		return nil, err
	}
	if !bytes.Equal(buf.Bytes(), fi.local) {
		return nil, errors.New("the fleet's report differs from the local pool's")
	}
	return buf.Bytes(), nil
}

func (fi *fleetInst) op(int, int) opResult {
	cache, err := fi.dispatch(nil)
	if err != nil {
		return opResult{kind: "run", err: err}
	}
	out, err := fi.render(cache)
	if err != nil {
		return opResult{kind: "run", err: err}
	}
	return opResult{kind: "run", digest: sha(out)}
}

func (fi *fleetInst) tracedOp(s scope, _, _ int) opResult {
	start := time.Now()
	h := &fleetHooks{reg: obs.NewRegistry()}
	var cache *exp.Cache
	var out []byte
	var err error
	s.do("dist.run", func(scope) { cache, err = fi.dispatch(h) })
	if err == nil {
		s.do("registry.render", func(scope) { out, err = fi.render(cache) })
	}
	wall := time.Since(start)
	if err != nil {
		return opResult{kind: "run", err: err}
	}
	a := fi.a
	a.add(nFleetRuns, 1)
	a.add(capacityS, wall.Seconds())
	a.add("dist.batches", float64(h.reg.Counter("dist_dispatched_batches_total", "").Value()))
	a.add("dist.requeued", float64(h.reg.Counter("dist_requeued_jobs_total", "").Value()))
	a.add("dist.wire_bytes", float64(h.wire.Load()))
	a.sample("dist.fleet_s", wall.Seconds())
	slices.SortFunc(h.merges, func(x, y time.Time) int { return x.Compare(y) })
	for i := 1; i < len(h.merges); i++ {
		a.sample("dist.merge_gap_ms", ms(h.merges[i].Sub(h.merges[i-1])))
	}
	var most, total int64
	for i := range h.sims {
		n := h.sims[i].Load()
		most, total = max(most, n), total+n
	}
	a.sample("dist.imbalance", ratio(float64(most), float64(total)/fleetWorkers))
	return opResult{kind: "run", digest: sha(out), traced: wall}
}

func (fi *fleetInst) finish() []string { return nil }
func (fi *fleetInst) acc() *acc        { return fi.a }
func (fi *fleetInst) close()           { fi.ln.Close() }
