package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/serve"
	"icfp/internal/spec"
	"icfp/internal/store"
)

// tinyParams mirrors the registry tests' scaled-down sample sizes, so
// suites here stay cheap.
func tinyParams() registry.Params {
	cfg := spec.BaseConfig()
	cfg.WarmupInsts = 1_000
	return registry.Params{Cfg: cfg, N: 2_000}
}

// localServer builds a Server backed by a fresh store and the
// in-process simulation pool, plus its HTTP front.
func localServer(t *testing.T, reg *obs.Registry) (*serve.Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(reg)
	srv, err := serve.New(serve.Config{Store: st, LocalParallel: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs, st
}

// describe marshals one registry experiment as the suite document a
// client submits.
func describe(t *testing.T, name string) []byte {
	t.Helper()
	s, err := registry.Describe(name, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// localRender runs the same experiment locally — the byte-identity
// reference for every remote path.
func localRender(t *testing.T, name string) []byte {
	t.Helper()
	s, err := registry.Describe(name, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := registry.ReportSuite(&buf, s, exp.Parallelism(1)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitMatchesLocalAndStorePersists pins the service's core
// contract: a submission renders byte-identically to the local run, and
// an immediate resubmission is answered entirely from the store.
func TestSubmitMatchesLocalAndStorePersists(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs, st := localServer(t, reg)
	c, err := serve.NewClient(hs.URL, "", "", "")
	if err != nil {
		t.Fatal(err)
	}

	want := localRender(t, "fig8")
	var events []serve.Event
	out, err := c.Submit(describe(t, "fig8"), func(e serve.Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("remote output differs from local:\n--- local ---\n%s\n--- remote ---\n%s", want, out)
	}
	if events[0].Event != "plan" || events[0].StoreHits != 0 || events[0].Dispatched == 0 {
		t.Errorf("first submission plan event = %+v, want all-dispatched", events[0])
	}
	if st.Len() == 0 {
		t.Error("store is empty after a completed submission")
	}

	// Resubmission: zero dispatched, all store hits, same bytes.
	dispatchedBefore := reg.Counter("expq_dispatched_jobs_total", "").Value()
	var events2 []serve.Event
	out2, err := c.Submit(describe(t, "fig8"), func(e serve.Event) { events2 = append(events2, e) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2, want) {
		t.Error("resubmission output differs")
	}
	if events2[0].Dispatched != 0 || events2[0].StoreHits != events2[0].Jobs {
		t.Errorf("resubmission plan event = %+v, want 100%% store hits", events2[0])
	}
	if got := reg.Counter("expq_dispatched_jobs_total", "").Value(); got != dispatchedBefore {
		t.Errorf("resubmission dispatched %d jobs, want 0", got-dispatchedBefore)
	}
}

// TestSingleflightSharesInflightWork pins cross-client dedup: many
// concurrent submissions of the same suite produce each distinct
// simulation exactly once between them.
func TestSingleflightSharesInflightWork(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs, _ := localServer(t, reg)
	suite := describe(t, "hops")

	const clients = 4
	var wg sync.WaitGroup
	outs := make([][]byte, clients)
	errs := make([]error, clients)
	plans := make([]serve.Event, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := serve.NewClient(hs.URL, "", "", "")
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = c.Submit(suite, func(e serve.Event) {
				if e.Event == "plan" {
					plans[i] = e
				}
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Errorf("client %d got different bytes than client 0", i)
		}
	}
	// Each client's plan must fully account for its jobs across the
	// three layers, and the clients together must have shared work: far
	// fewer dispatches than clients x jobs.
	jobs := plans[0].Jobs
	if jobs == 0 {
		t.Fatal("plan event reports 0 jobs")
	}
	total := 0
	for i, p := range plans {
		if p.StoreHits+p.Attached+p.Dispatched != p.Jobs {
			t.Errorf("client %d plan %+v does not account for all jobs", i, p)
		}
		total += p.Dispatched
	}
	if total >= clients*jobs {
		t.Errorf("clients dispatched %d of %d job-submissions; store + in-flight table shared nothing", total, clients*jobs)
	}
	if got := reg.Counter("expq_dispatched_jobs_total", "").Value(); got != int64(total) {
		t.Errorf("expq_dispatched_jobs_total = %d, want %d (sum of plan events)", got, total)
	}
}

// TestBearerTokenAuth pins the auth gate: wrong or missing tokens are
// rejected before any work, the right token is accepted.
func TestBearerTokenAuth(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, LocalParallel: 1, Token: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, tc := range []struct {
		token string
		want  bool
	}{{"secret", true}, {"wrong", false}, {"", false}} {
		c, err := serve.NewClient(hs.URL, tc.token, "", "")
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Submit(describe(t, "hops"), nil)
		if ok := err == nil; ok != tc.want {
			t.Errorf("token %q: err = %v, want success=%v", tc.token, err, tc.want)
		}
		if !tc.want && (err == nil || !strings.Contains(err.Error(), "401")) {
			t.Errorf("token %q: err = %v, want a 401", tc.token, err)
		}
	}

	// Health stays open: liveness probes don't carry credentials.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %v %v, want open 200", resp, err)
	}
	if resp != nil {
		resp.Body.Close()
	}
}

// TestSubmitRejectsGarbage pins the input gate: undecodable and invalid
// suites fail with a 400 before anything simulates.
func TestSubmitRejectsGarbage(t *testing.T) {
	_, hs, _ := localServer(t, nil)
	for _, tc := range []struct{ name, body string }{
		{"not json", "not json at all"},
		{"unknown field", `{"name":"x","jobs":[],"wat":1}`},
		{"invalid job", `{"name":"x","jobs":[{"name":"j","machine":"wat","workload":"wat"}]}`},
	} {
		resp, err := http.Post(hs.URL+"/submit", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// GET is not a submission.
	resp, err := http.Get(hs.URL + "/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /submit = %d, want 405", resp.StatusCode)
	}
}

// hostileSuiteAlloc bounds the bytes the daemon allocates to refuse a
// suite of more than spec.MaxSuiteJobs jobs, whatever its size: the
// decoder stops at the first job past the bound. (Refusing one job past
// it allocates 28.5 MB on amd64, mostly the job array grown to the
// bound.)
const hostileSuiteAlloc = 48 << 20

// TestSubmitBoundsJobs pins what a hostile suite costs the daemon:
// documents of empty jobs, one past spec.MaxSuiteJobs and four times
// it, are refused with a 400 that names the bound, and refusing either
// allocates at most hostileSuiteAlloc bytes. Decoding every job before
// validation rejected the suite cost about ninety times the document's
// size: 71 MB for the larger one, against 32 MB with the bound.
func TestSubmitBoundsJobs(t *testing.T) {
	_, hs, _ := localServer(t, nil)
	for _, n := range []int{spec.MaxSuiteJobs + 1, 4 * spec.MaxSuiteJobs} {
		body := `{"jobs":[` + strings.Repeat(`{},`, n-1) + `{}]}`
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		resp, err := http.Post(hs.URL+"/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), fmt.Sprint(spec.MaxSuiteJobs)) {
			t.Errorf("%d jobs: status %d, %q; want 400 naming the %d-job bound", n, resp.StatusCode, msg, spec.MaxSuiteJobs)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("refusing %d jobs in %d bytes allocated %.1f MB", n, len(body), float64(alloc)/1e6)
		if alloc > hostileSuiteAlloc {
			t.Errorf("refusing %d jobs allocated %d bytes, want at most %d", n, alloc, hostileSuiteAlloc)
		}
	}
}

// TestSubmissionsShareStoreAcrossSuites pins cross-suite sharing:
// fig7's in-order baselines cover fig8's (figure8Names is a subset of
// figure7Names with identical specs), so a fig8 submission after fig7
// must hit the store for every baseline.
func TestSubmissionsShareStoreAcrossSuites(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs, _ := localServer(t, reg)
	c, err := serve.NewClient(hs.URL, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(describe(t, "fig7"), nil); err != nil {
		t.Fatal(err)
	}
	var plan serve.Event
	if _, err := c.Submit(describe(t, "fig8"), func(e serve.Event) {
		if e.Event == "plan" {
			plan = e
		}
	}); err != nil {
		t.Fatal(err)
	}
	if plan.StoreHits == 0 {
		t.Errorf("fig8 after fig7 hit the store 0 times; shared in-order baselines must be reused (plan %+v)", plan)
	}
}

// TestFuzzSuiteIsFullStoreCitizen pins the fuzz family's service-level
// citizenship: a suite of fuzz-family scenarios (the registry's fuzz
// corpus experiment) renders remotely byte-identical to the local run,
// persists to the store, and an immediate resubmission is answered
// 100% from store hits with nothing dispatched — same seed and knobs,
// same canonical key, exactly like named workloads.
func TestFuzzSuiteIsFullStoreCitizen(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs, st := localServer(t, reg)
	c, err := serve.NewClient(hs.URL, "", "", "")
	if err != nil {
		t.Fatal(err)
	}

	want := localRender(t, "fuzz")
	var events []serve.Event
	out, err := c.Submit(describe(t, "fuzz"), func(e serve.Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("remote fuzz output differs from local:\n--- local ---\n%s\n--- remote ---\n%s", want, out)
	}
	if st.Len() == 0 {
		t.Error("store is empty after a completed fuzz submission")
	}

	dispatchedBefore := reg.Counter("expq_dispatched_jobs_total", "").Value()
	var events2 []serve.Event
	out2, err := c.Submit(describe(t, "fuzz"), func(e serve.Event) { events2 = append(events2, e) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2, want) {
		t.Error("fuzz resubmission output differs")
	}
	if events2[0].Dispatched != 0 || events2[0].StoreHits != events2[0].Jobs {
		t.Errorf("fuzz resubmission plan event = %+v, want 100%% store hits", events2[0])
	}
	if got := reg.Counter("expq_dispatched_jobs_total", "").Value(); got != dispatchedBefore {
		t.Errorf("fuzz resubmission dispatched %d jobs, want 0", got-dispatchedBefore)
	}
}
