package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/pipeline"
	"icfp/internal/serve"
	"icfp/internal/spec"
	"icfp/internal/store"
)

// syntheticServer returns the named experiments' suite documents at the
// tests' scale, the number of distinct simulations they name, and a
// server whose store holds a made-up result for each of them: the suites
// are answered wholly from the store, and nothing is ever simulated.
func syntheticServer(tb testing.TB, names ...string) (docs [][]byte, keys int, srv *serve.Server) {
	tb.Helper()
	st, err := store.Open(tb.TempDir(), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	docs, plan := syntheticRecords(tb, st, names...)
	srv, err = serve.New(serve.Config{Store: st, LocalParallel: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return docs, len(plan), srv
}

// syntheticRecords returns the named experiments' suite documents at the
// tests' scale and the plan of their jobs, and puts madeUp(i) into st as
// the result of plan entry i.
func syntheticRecords(tb testing.TB, st *store.Store, names ...string) (docs [][]byte, plan []spec.Job) {
	tb.Helper()
	var jobs []spec.Job
	for _, name := range names {
		s, err := registry.Describe(name, tinyParams())
		if err != nil {
			tb.Fatal(err)
		}
		jobs = append(jobs, s.Jobs...)
		docs = append(docs, describe(tb, name))
	}
	plan, err := exp.Plan(jobs)
	if err != nil {
		tb.Fatal(err)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		if err := st.Put(exp.CachedResult{Machine: k.Machine, Workload: k.Workload, R: madeUp(i)}); err != nil {
			tb.Fatal(err)
		}
	}
	return docs, plan
}

// madeUp is the result syntheticRecords stores for plan entry i.
func madeUp(i int) pipeline.Result {
	return pipeline.Result{Cycles: int64(10_000 + 37*i), Insts: 8_000}
}

// replyWriter is an http.ResponseWriter that keeps the reply and counts
// its flushes.
type replyWriter struct {
	header  http.Header
	code    int
	body    bytes.Buffer
	flushes int
}

func (w *replyWriter) Header() http.Header         { return w.header }
func (w *replyWriter) WriteHeader(code int)        { w.code = code }
func (w *replyWriter) Flush()                      { w.flushes++ }
func (w *replyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// submit serves one submission of doc through h into w, emptied first.
func (w *replyWriter) submit(h http.Handler, doc []byte) {
	clear(w.header)
	w.code, w.flushes = 0, 0
	w.body.Reset()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/submit", bytes.NewReader(doc)))
}

// eventLine is one event's NDJSON line as the daemon has always written
// it: json.Marshal of the event and a newline.
func eventLine(t *testing.T, e serve.Event) string {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// events decodes a reply's NDJSON events.
func events(t *testing.T, reply []byte) []serve.Event {
	t.Helper()
	var evs []serve.Event
	sc := bufio.NewScanner(bytes.NewReader(reply))
	sc.Buffer(nil, serve.MaxSuiteBytes)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("undecodable line %q: %v", sc.Bytes(), err)
		}
		evs = append(evs, e)
	}
	return evs
}

// output returns the data of a reply's output event.
func output(t *testing.T, reply []byte) string {
	t.Helper()
	for _, e := range events(t, reply) {
		if e.Event == "output" {
			return e.Data
		}
	}
	t.Fatalf("no output event in %.300q", reply)
	return ""
}

// TestAllHitReplyIsPlanOutputDone pins the reply to a submission answered
// wholly from the store, byte for byte: the plan, output and done events
// in that order with the fields they always carried, written with no
// flush before the handler returns.
func TestAllHitReplyIsPlanOutputDone(t *testing.T) {
	docs, keys, srv := syntheticServer(t, "fig8")
	w := &replyWriter{header: http.Header{}}
	w.submit(srv.Handler(), docs[0])
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("status %d: %s", w.code, w.body.Bytes())
	}
	evs := events(t, w.body.Bytes())
	if len(evs) != 3 || evs[1].Event != "output" || evs[1].Data == "" {
		t.Fatalf("events = %+v, want plan, a non-empty output, done", evs)
	}
	want := eventLine(t, serve.Event{Event: "plan", Jobs: keys, StoreHits: keys}) +
		eventLine(t, serve.Event{Event: "output", Data: evs[1].Data}) +
		eventLine(t, serve.Event{Event: "done", Jobs: keys})
	if got := w.body.String(); got != want {
		t.Errorf("reply differs:\n got %.300q\nwant %.300q", got, want)
	}
	if w.flushes != 0 {
		t.Errorf("an all-hit reply flushed %d times, want 0 (it waits on nothing)", w.flushes)
	}
	if ct := w.header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
}

// BenchmarkSubmitHits submits every -all suite over loopback HTTP
// through serve.Client, against a store that holds a made-up result for
// each of their simulations: the daemon's hit path end to end for a
// resubmitted document (reading it, finding its prepared suite, the
// store lookups, comparing their results with the ones its kept output
// was rendered from, and the reply) and the client's, with nothing
// simulated or rendered. One op is one pass over the suites.
func BenchmarkSubmitHits(b *testing.B) {
	docs, _, srv := syntheticServer(b, registry.DefaultNames()...)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c, err := serve.NewClient(hs.URL, "", "", "")
	if err != nil {
		b.Fatal(err)
	}
	pass := func() {
		for _, doc := range docs {
			if _, err := c.Submit(doc, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // the store's first read of each record, each document's preparation and render
	b.ReportAllocs()
	for b.Loop() {
		pass()
	}
	b.ReportMetric(float64(len(docs)), "suites/op")
}

// TestPlanReachesClientBeforeSimulation pins the flush rule for a
// submission that dispatches work: its plan event reaches the client
// while the backend is still held (no worker has joined the fleet, so
// nothing can simulate), and the job events follow once one joins.
func TestPlanReachesClientBeforeSimulation(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	join := make(chan dist.Worker)
	srv, err := serve.New(serve.Config{Store: st, DistOpts: dist.Options{Join: join, Parallel: 2}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c, err := serve.NewClient(hs.URL, "", "", "")
	if err != nil {
		t.Fatal(err)
	}

	doc := describe(t, "hops")
	// Room for every event of the suite (a plan, 48 jobs, output and
	// done), so the client never blocks in onEvent.
	events := make(chan serve.Event, 256)
	type reply struct {
		out []byte
		err error
	}
	done := make(chan reply, 1)
	go func() {
		out, err := c.Submit(doc, func(e serve.Event) { events <- e })
		done <- reply{out, err}
	}()
	select {
	case e := <-events:
		if e.Event != "plan" || e.Dispatched == 0 || e.Dispatched != e.Jobs {
			t.Errorf("first event %+v, want a plan dispatching every job", e)
		}
	case r := <-done:
		t.Fatalf("submission ended before its plan event: %v", r.err)
	case <-time.After(10 * time.Second):
		// Go on: the worker joining below frees the held handler.
		t.Error("no plan event within 10 s while the backend was held: the plan was not flushed")
	}

	coord, worker := dist.Pipe()
	go dist.Serve(worker)
	join <- dist.Worker{Name: "held", RW: coord}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if want := localRender(t, "hops"); !bytes.Equal(r.out, want) {
		t.Errorf("output differs from a local run:\n--- local ---\n%s\n--- served ---\n%s", want, r.out)
	}
	close(events)
	var kinds []string
	for e := range events {
		kinds = append(kinds, e.Event)
	}
	if n := len(kinds); n < 3 || kinds[0] != "job" || kinds[n-2] != "output" || kinds[n-1] != "done" {
		t.Errorf("events after the plan = %v, want jobs, then output and done", kinds)
	}
}

// TestSubmitBoundsDocumentSize pins the document bound: a declared
// length past it is refused with 413 before the body is read, a body of
// unknown length is refused once it passes the bound, and one within it
// is served exactly as the same document sent with its length.
func TestSubmitBoundsDocumentSize(t *testing.T) {
	_, hs, _ := localServer(t, nil)

	// Headers only: a server that waited for the declared body would
	// never answer.
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /submit HTTP/1.1\r\nHost: expq\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", serve.MaxSuiteBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to a declared-oversize submission: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("declared %d bytes: status %d, want 413", serve.MaxSuiteBytes+1, resp.StatusCode)
	}

	// chunked posts body with no declared length: the transport sends
	// it chunked.
	chunked := func(body io.Reader) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/submit", io.NopCloser(body))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = -1
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	if code, _ := chunked(strings.NewReader(strings.Repeat(" ", serve.MaxSuiteBytes+1))); code != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked %d bytes: status %d, want 413", serve.MaxSuiteBytes+1, code)
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "customsuite", "suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The first submission simulates; the two compared are store hits.
	c, err := serve.NewClient(hs.URL, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(doc, nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/submit", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	withLength, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("with a length: status %d, %v", resp.StatusCode, err)
	}
	code, withoutLength := chunked(bytes.NewReader(doc))
	if code != http.StatusOK || !bytes.Equal(withoutLength, withLength) {
		t.Errorf("chunked: status %d, reply differs from the one sent with a length:\n%s\nwant\n%s", code, withoutLength, withLength)
	}
}
