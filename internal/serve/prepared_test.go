package serve_test

import (
	"bytes"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/pipeline"
	"icfp/internal/serve"
	"icfp/internal/store"
)

// TestPreparedSuites pins the server's memo of prepared suites: a
// resubmitted document is answered byte-identically from the suite
// prepared for it, also by concurrent submissions; a document that
// differs in any byte is prepared afresh; one that fails to decode is
// not kept; the memo counts each document with the output it keeps and
// the results that output was rendered from; and however many distinct
// documents arrive, the memo stays within its bounds.
func TestPreparedSuites(t *testing.T) {
	docs, keys, srv := syntheticServer(t, "fig7")
	doc := docs[0]
	h := srv.Handler()
	w := &replyWriter{header: http.Header{}}
	w.submit(h, doc)
	want := bytes.Clone(w.body.Bytes())
	// What the memo counts for one document beyond its bytes.
	kept := len(output(t, want)) + keys*int(unsafe.Sizeof(pipeline.Result{}))
	held := func(wantDocs, wantBytes int) {
		t.Helper()
		if n, size := srv.Prepared(); n != wantDocs || size != wantBytes {
			t.Errorf("the memo holds %d documents, %d bytes; want %d, %d", n, size, wantDocs, wantBytes)
		}
	}
	held(1, len(doc)+kept)

	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &replyWriter{header: http.Header{}}
			for range 5 {
				w.submit(h, doc)
				if !bytes.Equal(w.body.Bytes(), want) {
					t.Errorf("a resubmission's reply differs from the first:\n%s\nwant\n%s", w.body.Bytes(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
	held(1, len(doc)+kept)

	w.submit(h, []byte(`{"name":"x","jobs":[{}]}`))
	if w.code != http.StatusBadRequest {
		t.Errorf("an invalid suite: status %d, want 400", w.code)
	}
	held(1, len(doc)+kept)

	// Documents of the same suite that differ in trailing whitespace.
	for i := range serve.MaxPrepared + 8 {
		w.submit(h, append(slices.Clip(doc), strings.Repeat(" ", i+1)...))
		if !bytes.Equal(w.body.Bytes(), want) {
			t.Fatalf("document %d: the reply differs from the first", i)
		}
		n, size := srv.Prepared()
		if n > serve.MaxPrepared || size > serve.MaxPreparedBytes {
			t.Fatalf("the memo holds %d documents, %d bytes; the bounds are %d, %d", n, size, serve.MaxPrepared, serve.MaxPreparedBytes)
		}
		if i == 0 {
			held(2, 2*(len(doc)+kept)+1)
		}
	}
}

// TestChangedResultRendersAfresh pins the rule under which a prepared
// suite replies with the output it kept: only for results equal to the
// ones that output was rendered from. Here one record leaves the store
// between two submissions of a document, so its key misses and is
// simulated for real; the second reply must be the render of the new
// results, not the kept output.
func TestChangedResultRendersAfresh(t *testing.T) {
	dir := t.TempDir()
	fill, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs, plan := syntheticRecords(t, fill, "fig8")
	// The server's store is bounded to exactly these records, so one
	// more record evicts the least recently used.
	st, err := store.Open(dir, store.Options{MaxBytes: fill.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, LocalParallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := &replyWriter{header: http.Header{}}
	w.submit(h, docs[0])
	kept := output(t, w.body.Bytes())

	// Make the first plan entry's record the least recently used, then
	// store a smaller one under a key no suite names: the byte bound
	// evicts that record, index entry and file, and nothing else.
	gone := exp.KeyOf(plan[0])
	for _, sj := range plan[1:] {
		if _, ok, err := st.Get(exp.KeyOf(sj)); !ok || err != nil {
			t.Fatalf("a stored record reads as ok=%v, err=%v", ok, err)
		}
	}
	if err := st.Put(exp.CachedResult{Machine: "{}", Workload: "{}"}); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*", store.HashKey(gone)+".json")); len(files) != 0 {
		t.Fatalf("the first plan entry's record is still on disk: %v", files)
	}

	w.submit(h, docs[0])
	evs := events(t, w.body.Bytes())
	if evs[0].Event != "plan" || evs[0].Dispatched != 1 || evs[0].StoreHits != len(plan)-1 {
		t.Fatalf("resubmission plan event = %+v, want one job dispatched and %d store hits", evs[0], len(plan)-1)
	}
	got := output(t, w.body.Bytes())
	if got == kept {
		t.Fatal("a resubmission whose results changed replied with the output kept for the old ones")
	}

	// The local render of the new results: the made-up ones, and a local
	// simulation of the evicted entry.
	job := plan[0]
	job.Name = "evicted"
	rs, err := exp.Run([]exp.Job{job}, exp.Parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	res := make([]pipeline.Result, len(plan))
	for i := range res {
		res[i] = madeUp(i)
	}
	_, r := rs.At(0)
	res[0] = *r
	suite, err := registry.Describe("fig8", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	_, _, at := exp.PlanValidated(suite.Jobs)
	var want bytes.Buffer
	if err := registry.RenderSuite(&want, suite, exp.Collect(suite.Jobs, at, res)); err != nil {
		t.Fatal(err)
	}
	if got != want.String() {
		t.Errorf("the fresh render differs from the local render of the new results:\n%s\nwant\n%s", got, want.String())
	}
}

// TestSameResultSeesEveryField pins the equality a kept output is
// reused under: a result differing from another in any one field of
// pipeline.Result, set in turn by reflection, is told apart from it, so
// a field added to Result without its line in sameResult fails here.
// Floats compare by their bits.
func TestSameResultSeesEveryField(t *testing.T) {
	var zero pipeline.Result
	if !serve.SameResult(zero, zero) {
		t.Fatal("a zero result differs from itself")
	}
	typ := reflect.TypeOf(zero)
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		var a, b pipeline.Result
		fb := reflect.ValueOf(&b).Elem().Field(i)
		switch fb.Kind() {
		case reflect.String:
			fb.SetString("x")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fb.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fb.SetUint(1)
		case reflect.Float32, reflect.Float64:
			fb.SetFloat(math.Copysign(0, -1))
			if serve.SameResult(a, b) {
				t.Errorf("%s: a result with -0 matches one with +0", name)
			}
			fa := reflect.ValueOf(&a).Elem().Field(i)
			fa.SetFloat(math.NaN())
			fb.SetFloat(math.NaN())
			if !serve.SameResult(a, b) {
				t.Errorf("%s: a result with NaN differs from one with the same NaN", name)
			}
			fa.SetFloat(0)
			fb.SetFloat(1)
		default:
			t.Fatalf("%s is of kind %s, which this test cannot set: teach it and sameResult the kind", name, fb.Kind())
		}
		if serve.SameResult(a, b) || serve.SameResult(b, a) {
			t.Errorf("results differing only in %s compare equal", name)
		}
		if !serve.SameResult(b, b) {
			t.Errorf("a result with %s set differs from itself", name)
		}
	}
}
