package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/serve"
	"icfp/internal/spec"
	"icfp/internal/store"
	"icfp/internal/workload"
)

// missEvery makes every missEvery-th submission of a serve-mixed client
// a fresh suite. At one in ten, the run's tail percentile (p99 at the
// benchmark's run length) sits inside the store misses, so op_tail_ms
// reads the write path.
const missEvery = 10

// missKnobs are the adversarial knobs of the fresh serve-mixed suites:
// fixed, so only the fuzz seed varies between misses.
var missKnobs = workload.FuzzKnobs{MissCluster: 50}

// serveInst is an in-process expq daemon (serve.Server on loopback HTTP)
// over a store pre-filled with the -all suites at golden scale, and the
// two closed-loop clients that drive it.
type serveInst struct {
	mixed   bool
	seed    int64
	rep     int
	sizes   sizes
	g       *goldenSet
	st      *store.Store
	side    *store.Store // traced runs: the write-path replica's own store
	hs      *http.Server
	served  chan struct{}
	clients []*serve.Client
	order   [][]int // per client: the seeded order it cycles through the suites
	a       *acc

	mu     sync.Mutex
	misses []missRecord
}

// missRecord is one served fresh suite, kept for the checks after the
// measured window.
type missRecord struct {
	suite spec.Suite
	out   []byte
}

func newServe(c childConfig, mixed bool, tr *tracer) (*serveInst, error) {
	g, err := renderGolden(c.Root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(c.Dir, "store")
	if err := linkTree(c.Fixture, dir); err != nil {
		return nil, fmt.Errorf("linking the store fixture: %w", err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	if st.Len() != len(g.cache.Snapshot()) {
		return nil, fmt.Errorf("the store fixture holds %d records, the golden render %d", st.Len(), len(g.cache.Snapshot()))
	}
	srv, err := serve.New(serve.Config{Store: st, LocalParallel: poolSlots})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	si := &serveInst{
		mixed: mixed, seed: c.Seed, rep: c.Rep, sizes: c.sizes(), g: g, st: st,
		hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), a: newAcc(),
	}
	go func() {
		si.hs.Serve(ln) // returns http.ErrServerClosed once close() shuts it
		close(si.served)
	}()
	for client := range 2 {
		cl, err := serve.NewClient("http://"+ln.Addr().String(), "", "", "")
		if err != nil {
			si.close()
			return nil, err
		}
		si.clients = append(si.clients, cl)
		si.order = append(si.order, shuffled(mix(c.Seed, c.Rep, client), len(g.docs)))
	}
	if tr != nil {
		if si.side, err = store.Open(filepath.Join(c.Dir, "side"), store.Options{}); err != nil {
			si.close()
			return nil, err
		}
	}
	return si, nil
}

// buildStoreFixture fills a store at dir with every result of -all at
// golden scale. The parent builds it once per run and each serve child
// links it into a store of its own: a store's writes are fsynced, and a
// thousand fsyncs per set-up would time the disk, not the daemon.
func buildStoreFixture(root, dir string) error {
	g, err := renderGolden(root)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	for _, r := range g.cache.Snapshot() {
		if err := st.Put(r); err != nil {
			return fmt.Errorf("filling the store fixture: %w", err)
		}
	}
	return nil
}

// linkTree recreates the directory tree at src under dst with every file
// hard-linked. Stores never rewrite a record file in place, so the links
// stay private to dst's store.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst, rel))
	})
}

// submission is one suite a client sends.
type submission struct {
	doc  []byte
	name string      // the described experiment; "" for a fresh suite
	want []byte      // expected report of a described experiment
	miss *spec.Suite // the fresh suite of a serve-mixed miss
}

func (si *serveInst) pick(c, i int) (submission, error) {
	if si.mixed && i%missEvery == missEvery-1 {
		s := si.missSuite(c, i)
		doc, err := s.Marshal()
		return submission{doc: doc, miss: &s}, err
	}
	k := si.order[c][i%len(si.order[c])]
	return submission{doc: si.g.docs[k], name: si.g.suites[k].Name, want: si.g.want[k]}, nil
}

// missSuite is client c's i-th fresh suite: in-order and iCFP over a fuzz
// scenario whose seed derives from the run's seed, so it misses the
// store. The machines' warmup override stays below the trace length: a
// warmup past the end of the trace leaves nothing measured and yields NaN
// per-KI statistics, which the store's JSON records cannot encode.
func (si *serveInst) missSuite(c, i int) spec.Suite {
	// Fuzz seeds stay below 2^52: specs round-trip through float64 JSON.
	seed := mix(si.seed, si.rep, c, i) >> 11
	wl := spec.FuzzWorkload(seed, missKnobs, si.sizes.missN)
	ov := &spec.Overrides{Warmup: spec.Int(si.sizes.missWarm)}
	return spec.Suite{
		Name:   "mixed-" + strconv.FormatInt(seed, 16),
		N:      si.sizes.missN - si.sizes.missWarm,
		Warm:   si.sizes.missWarm,
		Render: &spec.Render{Kind: spec.RenderSpeedup},
		Jobs: []spec.Job{
			{Name: "f/base", Machine: spec.Machine{Model: spec.ModelInOrder, Overrides: ov}, Workload: wl},
			{Name: "f/icfp", Machine: spec.Machine{Model: spec.ModelICFP, Overrides: ov}, Workload: wl},
		},
	}
}

func (si *serveInst) op(c, i int) opResult {
	sub, err := si.pick(c, i)
	if err != nil {
		return opResult{kind: "hit", err: err}
	}
	var plan serve.Event
	out, err := si.clients[c].Submit(sub.doc, func(e serve.Event) {
		if e.Event == "plan" {
			plan = e
		}
	})
	return si.check(sub, plan, out, err)
}

// check judges one response: a store hit must dispatch nothing and match
// its slice of the golden byte for byte; a fresh suite must dispatch every
// job, and is kept for the checks after the window.
func (si *serveInst) check(sub submission, plan serve.Event, out []byte, err error) opResult {
	if sub.miss != nil {
		r := opResult{kind: "miss", err: err}
		if err == nil && (plan.Jobs != len(sub.miss.Jobs) || plan.Dispatched != plan.Jobs) {
			r.err = fmt.Errorf("fresh suite %s: %d of %d jobs dispatched, want all %d", sub.miss.Name, plan.Dispatched, plan.Jobs, len(sub.miss.Jobs))
		}
		if r.err == nil {
			si.mu.Lock()
			si.misses = append(si.misses, missRecord{suite: *sub.miss, out: out})
			si.mu.Unlock()
		}
		return r
	}
	r := opResult{kind: "hit", err: err}
	switch {
	case err != nil:
	case plan.Dispatched != 0:
		r.err = fmt.Errorf("suite %s: a store hit dispatched %d jobs", sub.name, plan.Dispatched)
	case !bytes.Equal(out, sub.want):
		r.err = fmt.Errorf("suite %s: response differs from its slice of %s", sub.name, goldenPath)
	}
	return r
}

func (si *serveInst) tracedOp(s scope, c, i int) opResult {
	start := time.Now()
	sub, err := si.pick(c, i)
	if err != nil {
		return opResult{kind: "hit", err: err}
	}
	// The HTTP path, timed from outside through the streamed events:
	// submit → plan (decode, plan, store lookups), plan → last job
	// (dispatch: simulate and persist), last event → output (render).
	var plan serve.Event
	var tPlan, tLast, tOut time.Time
	var out []byte
	t0 := time.Now()
	submit := s.do("serve.submit", func(ss scope) {
		out, err = si.clients[c].Submit(sub.doc, func(e serve.Event) {
			now := time.Now()
			switch e.Event {
			case "plan":
				plan, tPlan, tLast = e, now, now
			case "job":
				tLast = now
			case "output":
				tOut = now
			}
		})
		if err == nil {
			ss.record("serve.plan", t0, tPlan)
			ss.record("serve.resolve", tPlan, tLast)
			ss.record("serve.render", tLast, tOut)
		}
	})
	r := si.check(sub, plan, out, err)
	r.traced = submit.dur()
	if r.err != nil {
		return r
	}
	a := si.a
	a.add(nSubmissions, 1)
	a.add("serve.jobs", float64(plan.Jobs))
	a.add("store.hits", float64(plan.StoreHits))
	a.add("store.misses", float64(plan.Jobs-plan.StoreHits))
	a.add("serve.dispatched", float64(plan.Dispatched))
	a.sample("serve.plan_ms", ms(tPlan.Sub(t0)))
	a.sample("serve.render_ms", ms(tOut.Sub(tLast)))
	if sub.miss != nil {
		a.sample("serve.miss_ms", ms(submit.dur()))
		a.sample("serve.miss_sim_ms", ms(tOut.Sub(tPlan)))
	} else {
		a.sample("serve.hit_ms", ms(submit.dur()))
	}
	s.do("replica", func(rs scope) { r.err = si.replica(rs, sub, out) })
	a.add(capacityS, time.Since(start).Seconds())
	return r
}

// replica replays the served request through the layers the daemon uses,
// each call timed: the client's registry.Describe and encoding (for a
// described experiment), spec.UnmarshalSuite, exp.Plan, store.Get per
// key, exp.Cache.AddResults and registry.ReportSuite — plus, for a fresh
// suite, store.Put of each result into a separate store, the write the
// daemon made. The replica's report must equal the served one.
func (si *serveInst) replica(s scope, sub submission, served []byte) error {
	a := si.a
	var err error
	if sub.miss == nil {
		var doc []byte
		s.do("registry.describe", func(scope) {
			var su spec.Suite
			if su, err = registry.Describe(sub.name, params(goldenN, goldenWarm)); err == nil {
				doc, err = su.Marshal()
			}
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(doc, sub.doc) {
			return fmt.Errorf("suite %s: describing it again gives a different document", sub.name)
		}
	}
	var suite spec.Suite
	decode := s.do("spec.decode", func(scope) { suite, err = spec.UnmarshalSuite(sub.doc) })
	if err != nil {
		return err
	}
	a.sample("spec.decode_us", us(decode.dur()))
	var plan []spec.Job
	s.do("exp.plan", func(scope) { plan, err = exp.Plan(suiteJobs(suite)) })
	if err != nil {
		return err
	}
	a.add(nPlans, 1)
	a.add("exp.jobs", float64(len(suite.Jobs)))
	a.add("exp.plan_keys", float64(len(plan)))
	cache := exp.NewCache()
	for _, sj := range plan {
		var rec exp.CachedResult
		var ok bool
		get := s.do("store.get", func(scope) { rec, ok, err = si.st.Get(exp.KeyOf(sj)) })
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("suite %s: a served job is missing from the store", suite.Name)
		}
		a.sample("store.get_us", us(get.dur()))
		if sub.miss != nil {
			put := s.do("store.put", func(scope) { err = si.side.Put(rec) })
			if err != nil {
				return err
			}
			a.sample("store.put_us", us(put.dur()))
		}
		s.do("exp.cache_fill", func(scope) { cache.AddResults([]exp.CachedResult{rec}) })
	}
	var buf bytes.Buffer
	s.do("registry.render", func(scope) {
		_, err = registry.ReportSuite(&buf, suite, exp.WithCache(cache), exp.Parallelism(1))
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), served) {
		return fmt.Errorf("suite %s: the replica's report differs from the served one", suite.Name)
	}
	return nil
}

// finish checks every served fresh suite after the window: rendered again
// from the records the daemon stored, it must equal the response; and the
// first one, simulated again locally, must too.
func (si *serveInst) finish() []string {
	var fails []string
	for n, m := range si.misses {
		got, err := renderFromStore(si.st, m.suite)
		if err == nil && !bytes.Equal(got, m.out) {
			err = errors.New("the response differs from a render of the stored records")
		}
		if err == nil && n == 0 {
			var local bytes.Buffer
			if _, err = registry.ReportSuite(&local, m.suite, exp.Parallelism(poolSlots)); err == nil && !bytes.Equal(local.Bytes(), m.out) {
				err = errors.New("the response differs from a local simulation")
			}
		}
		if err != nil {
			fails = append(fails, fmt.Sprintf("fresh suite %s: %v", m.suite.Name, err))
		}
	}
	si.a.set("store.bytes", float64(si.st.Bytes()))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	si.a.set("serve.heap_bytes", float64(mem.HeapAlloc))
	return fails
}

// renderFromStore renders a suite purely from stored records.
func renderFromStore(st *store.Store, s spec.Suite) ([]byte, error) {
	plan, err := exp.Plan(suiteJobs(s))
	if err != nil {
		return nil, err
	}
	cache := exp.NewCache()
	for _, sj := range plan {
		rec, ok, err := st.Get(exp.KeyOf(sj))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, errors.New("a served job is missing from the store")
		}
		cache.AddResults([]exp.CachedResult{rec})
	}
	var buf bytes.Buffer
	if _, err := registry.ReportSuite(&buf, s, exp.WithCache(cache), exp.Parallelism(1)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (si *serveInst) acc() *acc { return si.a }

func (si *serveInst) close() {
	si.hs.Close()
	<-si.served
}
