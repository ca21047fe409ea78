// Package serve is the simulation service: the HTTP layer that turns
// the batch pipeline into a long-lived daemon (cmd/expq). Clients
// submit declarative suites — the same `-spec` documents the CLI runs —
// and get back per-job progress plus the final rendered tables,
// byte-identical to a local run of the same suite.
//
// The serving discipline mirrors the shared-batch-service shape of the
// cluster-computing literature in PAPERS.md: most traffic is absorbed
// by common infrastructure, and only genuinely new work reaches the
// compute backend. Concretely, each submitted job resolves through
// three layers:
//
//  1. the persistent content-addressed store (internal/store) — a prior
//     completion by any client, any process lifetime, is a hit;
//  2. the in-flight table — jobs identical (by canonical spec) to one
//     already simulating for another client attach to that flight
//     instead of simulating again (singleflight across all clients);
//  3. the compute backend — an elastic `expd join` fleet via the
//     internal/dist coordinator, or a local worker pool.
//
// Completed simulations are persisted before waiters are released, so a
// result is never announced and then lost to a crash. A resubmitted
// document answered wholly from the store last time is answered with
// that reply again, without a single key lookup, while the store entries
// it was rendered from stand (prepared.go).
//
// Responses stream as NDJSON, one JSON event per line: `plan` (how the
// submission resolved), `job` (one result merged), `output` (the
// rendered report), `done` or `error`. An event is flushed to the client
// when the next one waits on a simulation: the `plan` event of a
// submission that dispatched or attached jobs, and every `job` event.
// The rest go out together when the reply ends, so a submission answered
// wholly from the store is one write. The wire format is plain HTTP,
// chunked once a reply outgrows the server's buffer — curl works.
package serve

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/obs"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/store"
)

// maxSuiteBytes bounds one submitted suite document. Generously above
// any real suite (the -all experiments' documents average 31 KB; the
// largest, fig6 with 750 jobs, is about 200 KB) while keeping a hostile
// client from streaming gigabytes into memory: a longer declared length
// is refused before the body is read, and a body of unknown length is
// cut off at the bound. spec.MaxSuiteJobs bounds what decoding it may
// cost.
const maxSuiteBytes = 8 << 20

// Config assembles a Server.
type Config struct {
	// Store persists completed results across submissions and daemon
	// restarts. Required.
	Store *store.Store
	// DistOpts seeds the per-submission coordinator options. When its
	// Join is set, it delivers dialed-in expd workers and cache-miss
	// jobs are dispatched to the fleet via the dist coordinator, whose
	// workers each run a pool of DistOpts.Parallel. The channel is
	// long-lived: each submission runs one coordinator round, and
	// workers redial between rounds (the expd join retry loop). Metrics
	// and OnMerge are filled per submission.
	DistOpts dist.Options
	// LocalParallel, when DistOpts.Join is nil, sizes the in-process
	// simulation pool; values below 1 mean GOMAXPROCS.
	LocalParallel int
	// Token, when non-empty, requires `Authorization: Bearer <token>`
	// on submissions — the same shared secret the dist fleet uses.
	Token string
	// Metrics, when set, receives the expq_* service series and is
	// shared with the store and the dispatch layer.
	Metrics *obs.Registry
	// Log receives service diagnostics; nil means silent.
	Log *slog.Logger
}

// flight is one in-progress simulation shared by every submission that
// needs its key: the claimant runs it, everyone else waits on done.
type flight struct {
	done chan struct{}
	res  exp.CachedResult
	err  error
}

// Server handles suite submissions. One Server owns the in-flight
// table; run exactly one per store directory.
type Server struct {
	cfg Config

	mu       sync.Mutex // guards inflight
	inflight map[exp.Key]*flight

	// dispatchMu serializes fleet rounds: the join channel feeds one
	// coordinator at a time. Store hits and flight waits never take it.
	dispatchMu sync.Mutex

	prepared preparedSuites // the last documents served, decoded and planned

	submissions *obs.Counter
	dispatched  *obs.Counter
	attached    *obs.Counter
	clients     *obs.Gauge
}

// New assembles a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	s := &Server{
		cfg:         cfg,
		inflight:    make(map[exp.Key]*flight),
		submissions: cfg.Metrics.Counter("expq_submissions_total", "suite submissions accepted"),
		dispatched:  cfg.Metrics.Counter("expq_dispatched_jobs_total", "jobs sent to the compute backend (store misses not already in flight)"),
		attached:    cfg.Metrics.Counter("expq_attached_jobs_total", "jobs attached to another client's in-flight simulation"),
		clients:     cfg.Metrics.Gauge("expq_clients", "submissions currently being served"),
	}
	cfg.Metrics.GaugeFunc("expq_inflight_jobs", "simulations currently running for some client", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.inflight))
	})
	return s, nil
}

// Handler returns the service's HTTP routes: POST /submit and GET
// /healthz. Metrics stay on the separate obs handler (cmd/expq's
// -metrics-addr), which keeps the control and observation planes
// apart.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// authorized checks the bearer token, constant-time, hash-first so
// length is not observable either — the same discipline as the dist
// transport preamble.
func (s *Server) authorized(r *http.Request) bool {
	if s.cfg.Token == "" {
		return true
	}
	got := r.Header.Get("Authorization")
	want := "Bearer " + s.cfg.Token
	gh, wh := sha256.Sum256([]byte(got)), sha256.Sum256([]byte(want))
	return subtle.ConstantTimeCompare(gh[:], wh[:]) == 1
}

// Event is one NDJSON progress line of a streaming submission response.
type Event struct {
	Event string `json:"event"` // plan | job | output | done | error

	// plan: how the submission resolved against the three layers.
	Jobs       int `json:"jobs,omitempty"`       // distinct simulations in the suite
	StoreHits  int `json:"store_hits,omitempty"` // answered from the persistent store
	Attached   int `json:"attached,omitempty"`   // shared with another client's flight
	Dispatched int `json:"dispatched,omitempty"` // sent to the compute backend

	// job: one simulation merged.
	Machine  string `json:"machine,omitempty"`
	Workload string `json:"workload,omitempty"`
	Done     int    `json:"done,omitempty"`
	Total    int    `json:"total,omitempty"`

	// output: the rendered report, verbatim.
	Data string `json:"data,omitempty"`

	// error.
	Error string `json:"error,omitempty"`
}

// eventWriter serializes NDJSON events onto one response: job events
// arrive from concurrent merge callbacks.
type eventWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	f   http.Flusher
}

// send encodes e onto the response. flush pushes it, and whatever is
// still buffered before it, to the client now; the caller asks for that
// when the next event waits on a simulation.
func (ew *eventWriter) send(e Event, flush bool) {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	ew.enc.Encode(e) // events are plain data; only the write can fail, and then the client is gone
	if flush && ew.f != nil {
		ew.f.Flush()
	}
}

// planned is one distinct simulation of a submission: the job that
// names it, its key and index in the plan, and the flight it waits on
// when another submission is simulating it.
type planned struct {
	sj *spec.Job
	k  exp.Key
	i  int
	f  *flight
}

// readBody reads a request body of declared length n (negative when
// unknown, as for a chunked body) into one buffer, a spare of the
// prepared-suite memo's when n is known.
func (s *Server) readBody(body io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return io.ReadAll(body)
	}
	b := s.prepared.body(int(n))
	_, err := io.ReadFull(body, b)
	return b, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a suite document", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorized(r) {
		http.Error(w, "missing or wrong bearer token", http.StatusUnauthorized)
		return
	}
	if r.ContentLength > maxSuiteBytes {
		http.Error(w, fmt.Sprintf("suite of %d bytes; the limit is %d", r.ContentLength, maxSuiteBytes), http.StatusRequestEntityTooLarge)
		return
	}
	body, err := s.readBody(http.MaxBytesReader(w, r.Body, maxSuiteBytes), r.ContentLength)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("reading suite: %v", err), code)
		return
	}
	// The memo owns body from here: a prepared suite's strings alias it,
	// or it is a spare the next body is read into.
	p, err := s.prepared.prepare(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	suite, first, keys := p.suite, p.first, p.keys

	s.submissions.Inc()
	s.clients.Add(1)
	defer s.clients.Add(-1)
	if s.cfg.Log != nil {
		s.cfg.Log.Info("submission accepted", obs.KeyJobs, len(keys), "suite", suite.Name)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	if a := s.prepared.kept(p); a != nil && a.res.Revalidate() {
		w.Write(a.reply) // only the write can fail, and then the client is gone
		return
	}
	rs, err := s.cfg.Store.Resolve(keys)
	if err == nil && rs.Hits() == len(keys) {
		s.answer(w, p, rs)
		return
	}
	flusher, _ := w.(http.Flusher)
	ew := &eventWriter{enc: json.NewEncoder(w), f: flusher}
	if err != nil {
		ew.send(Event{Event: "error", Error: err.Error()}, false)
		return
	}
	s.prepared.keep(p, nil)
	res, err := s.run(suite.Jobs, first, keys, rs, ew)
	if err != nil {
		ew.send(Event{Event: "error", Error: err.Error()}, false)
		return
	}
	out, err := p.render(res)
	if err != nil {
		ew.send(Event{Event: "error", Error: err.Error()}, false)
		return
	}
	ew.send(Event{Event: "output", Data: out}, false)
	ew.send(Event{Event: "done", Jobs: len(keys)}, false)
}

// answer replies to a submission of p whose plan rs resolved wholly from
// the store: the plan, output and done events, written in one piece, and
// kept by p as the reply while rs renews.
func (s *Server) answer(w io.Writer, p *prepared, rs *store.Resolution) {
	res := make([]pipeline.Result, len(p.keys))
	for i := range res {
		res[i], _ = rs.Result(i)
	}
	n := len(p.keys)
	var reply bytes.Buffer
	enc := json.NewEncoder(&reply) // as eventWriter encodes: the same bytes
	enc.Encode(Event{Event: "plan", Jobs: n, StoreHits: n})
	out, err := p.render(res)
	if err != nil {
		enc.Encode(Event{Event: "error", Error: err.Error()})
		w.Write(reply.Bytes())
		return
	}
	enc.Encode(Event{Event: "output", Data: out})
	enc.Encode(Event{Event: "done", Jobs: n})
	w.Write(reply.Bytes())
	s.prepared.keep(p, &answer{res: rs, reply: reply.Bytes()})
}

// run resolves the plan entries rs missed through the in-flight table
// and the backend, and returns each entry's result: entry i is the
// simulation of jobs[first[i]], and keys[i] is its key.
func (s *Server) run(jobs []spec.Job, first []int, keys []exp.Key, rs *store.Resolution, ew *eventWriter) ([]pipeline.Result, error) {
	res := make([]pipeline.Result, len(keys))
	var mine []planned   // this submission simulates these
	var shared []planned // another submission is simulating these
	for i, k := range keys {
		if r, ok := rs.Result(i); ok {
			res[i] = r
			continue
		}
		s.mu.Lock()
		if f, ok := s.inflight[k]; ok {
			shared = append(shared, planned{k: k, i: i, f: f})
			s.attached.Inc()
		} else {
			f := &flight{done: make(chan struct{})}
			s.inflight[k] = f
			mine = append(mine, planned{sj: &jobs[first[i]], k: k, i: i})
		}
		s.mu.Unlock()
	}
	// Some entry missed the store, so the next event waits on a
	// simulation: flush the plan so the client sees it first.
	ew.send(Event{Event: "plan", Jobs: len(keys), StoreHits: rs.Hits(), Attached: len(shared), Dispatched: len(mine)}, true)

	total := len(keys)
	var doneMu sync.Mutex
	done := rs.Hits()
	progress := func(k exp.Key) {
		doneMu.Lock()
		done++
		n := done
		doneMu.Unlock()
		ew.send(Event{Event: "job", Machine: k.Machine, Workload: k.Workload, Done: n, Total: total}, true)
	}

	cache := exp.NewCache()
	if err := s.dispatch(mine, cache, progress); err != nil {
		return nil, err
	}
	for _, p := range mine {
		r, ok := cache.Lookup(p.k)
		if !ok {
			return nil, fmt.Errorf("serve: job (%s | %s) has no result", p.k.Machine, p.k.Workload)
		}
		res[p.i] = r
	}
	// Results simulated by other submissions: wait and take them. The
	// claimant persisted each before publishing, so a flight resolving
	// cleanly is durable.
	for _, p := range shared {
		<-p.f.done
		if p.f.err != nil {
			return nil, fmt.Errorf("serve: shared in-flight job failed: %w", p.f.err)
		}
		res[p.i] = p.f.res.R
		progress(p.k)
	}
	return res, nil
}

// dispatch runs this submission's share of the plan on the backend,
// persisting and publishing each result as it merges into cache. On any
// error the unpublished flights are failed and removed so a later
// submission can retry the keys.
func (s *Server) dispatch(mine []planned, cache *exp.Cache, progress func(exp.Key)) (err error) {
	if len(mine) == 0 {
		return nil
	}
	s.dispatched.Add(int64(len(mine)))

	published := make(map[exp.Key]bool, len(mine))
	var pubMu sync.Mutex
	// complete persists one merged result, then releases its waiters.
	// Persist-before-publish: a waiter released on a result that then
	// failed to persist would report success the store cannot back.
	complete := func(k exp.Key) {
		rec, ok, perr := s.cfg.Store.PutCached(cache, k)
		if !ok {
			return // no completed result for k; nothing to publish
		}
		pubMu.Lock()
		if published[k] {
			pubMu.Unlock()
			return
		}
		published[k] = true
		pubMu.Unlock()
		s.mu.Lock()
		f := s.inflight[k]
		delete(s.inflight, k)
		s.mu.Unlock()
		if f != nil {
			f.res, f.err = rec, perr
			close(f.done)
		}
		if perr != nil {
			if s.cfg.Log != nil {
				s.cfg.Log.Error("persisting result failed", obs.KeyCause, perr)
			}
			pubMu.Lock()
			if err == nil {
				err = perr
			}
			pubMu.Unlock()
			return
		}
		progress(k)
	}
	// Whatever the backend leaves unpublished (dispatch error, worker
	// loss) fails loudly for this submission's waiters and frees the
	// keys for a retry.
	defer func() {
		for _, p := range mine {
			pubMu.Lock()
			pub := published[p.k]
			pubMu.Unlock()
			if pub {
				continue
			}
			s.mu.Lock()
			f := s.inflight[p.k]
			delete(s.inflight, p.k)
			s.mu.Unlock()
			if f != nil {
				f.err = fmt.Errorf("serve: job (%s | %s) not completed: %w", p.k.Machine, p.k.Workload, err)
				close(f.done)
			}
		}
	}()

	if s.cfg.DistOpts.Join != nil {
		plan := make([]spec.Job, len(mine))
		for i, p := range mine {
			plan[i] = spec.Job{Machine: p.sj.Machine, Workload: p.sj.Workload}
		}
		s.dispatchMu.Lock()
		defer s.dispatchMu.Unlock()
		opts := s.cfg.DistOpts
		opts.Metrics = s.cfg.Metrics
		opts.OnMerge = complete
		if rerr := dist.Run(plan, nil, cache, opts); rerr != nil && err == nil {
			err = rerr
		}
		return err
	}

	jobs := make([]exp.Job, len(mine))
	for i, p := range mine {
		jobs[i] = exp.Job{Name: fmt.Sprintf("serve/%d", i), Machine: p.sj.Machine, Workload: p.sj.Workload}
	}
	if _, rerr := exp.Run(jobs,
		exp.WithCache(cache),
		exp.Parallelism(s.cfg.LocalParallel),
		exp.OnRun(complete),
	); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
