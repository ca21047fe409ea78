package serve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/pipeline"
	"icfp/internal/serve"
	"icfp/internal/spec"
	"icfp/internal/store"
)

// TestResubmittedBodiesAreReused pins the body spares: a resubmission's
// body, which no prepared suite aliases, is what the next body is read
// into, and a first submission's, which its prepared suite aliases, is
// never read into again. However the buffers go round, every document
// is still found in the memo and answered with its own reply.
func TestResubmittedBodiesAreReused(t *testing.T) {
	docs, _, srv := syntheticServer(t, "fig6", "fig7", "fig8")
	h := srv.Handler()
	w := &replyWriter{header: http.Header{}}
	submit := func(doc []byte) []byte {
		t.Helper()
		w.submit(h, doc)
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body.Bytes())
		}
		return bytes.Clone(w.body.Bytes())
	}
	var want [][]byte
	for _, doc := range docs {
		want = append(want, submit(doc))
	}
	submit(docs[0])
	if n := srv.SpareBodies(); n != 1 {
		t.Fatalf("%d spare bodies after a resubmission, want 1", n)
	}
	// A new document shorter than fig6's is read into the spare, which
	// its prepared suite then aliases.
	fresh := append(slices.Clip(docs[1]), ' ')
	docs, want = append(docs, fresh), append(want, submit(fresh))
	if n := srv.SpareBodies(); n != 0 {
		t.Fatalf("%d spare bodies after a first submission, want 0: it was read into the spare", n)
	}
	for range 3 {
		for i, doc := range docs {
			if got := submit(doc); !bytes.Equal(got, want[i]) {
				t.Fatalf("document %d: reply differs from its first:\n%s\nwant\n%s", i, got, want[i])
			}
		}
		if n, _ := srv.Prepared(); n != len(docs) {
			t.Fatalf("the memo holds %d documents, want %d: a body a suite aliases was read into", n, len(docs))
		}
	}
}

// TestPreparedSuites pins the server's memo of prepared suites: a
// resubmitted document is answered byte-identically from the suite
// prepared for it, also by concurrent submissions; a document that
// differs in any byte is prepared afresh; one that fails to decode is
// not kept; the memo counts each document with the reply it keeps and
// the store resolution that reply was rendered from; and however many
// distinct documents arrive, the memo stays within its bounds.
func TestPreparedSuites(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs, plan := syntheticRecords(t, st, "fig7")
	srv, err := serve.New(serve.Config{Store: st, LocalParallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc := docs[0]
	h := srv.Handler()
	w := &replyWriter{header: http.Header{}}
	w.submit(h, doc)
	want := bytes.Clone(w.body.Bytes())
	// What the memo counts for one document beyond its bytes: the reply
	// and the resolution of its plan.
	rs, err := st.Resolve(keysOf(plan))
	if err != nil {
		t.Fatal(err)
	}
	kept := len(want) + rs.Bytes()
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

// keysOf returns the keys of plan's jobs, in order.
func keysOf(plan []spec.Job) []exp.Key {
	keys := make([]exp.Key, len(plan))
	for i, sj := range plan {
		keys[i] = exp.KeyOf(sj)
	}
	return keys
}

// TestKeptReplyKeepsLRUOrder pins that a resubmission answered with its
// kept reply stamps the store's LRU clock as per-key lookups do. The
// store is bounded to the records of two suites, A and B; A is
// submitted, then B, then A again, and one more record is stored. The
// record evicted must be B's oldest, never one of A's: a kept path that
// skipped the stamping would leave A's first record the oldest.
func TestKeptReplyKeepsLRUOrder(t *testing.T) {
	dir := t.TempDir()
	fill, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := syntheticRecords(t, fill, "hops", "ooo")
	plans := make([][]exp.Key, 2)
	for i, name := range []string{"hops", "ooo"} {
		s, err := registry.Describe(name, tinyParams())
		if err != nil {
			t.Fatal(err)
		}
		_, plans[i], _ = exp.PlanValidated(s.Jobs)
	}
	a, b := plans[0], plans[1]
	for _, k := range a {
		if slices.Contains(b, k) {
			t.Fatalf("suites A and B share the key (%s | %s): pick disjoint suites", k.Machine, k.Workload)
		}
	}
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
	for _, doc := range [][]byte{docs[0], docs[1], docs[0]} {
		w.submit(h, doc)
		if evs := events(t, w.body.Bytes()); evs[0].StoreHits != evs[0].Jobs {
			t.Fatalf("plan event %+v, want all store hits", evs[0])
		}
	}
	kept := srv.Kept(docs[0])
	if kept == nil {
		t.Fatal("suite A keeps no reply")
	}

	if err := st.Put(exp.CachedResult{Machine: "{}", Workload: "{}"}); err != nil {
		t.Fatal(err)
	}
	stored := func(k exp.Key) bool {
		_, err := os.Stat(filepath.Join(dir, store.HashKey(k)[:2], store.HashKey(k)+".json"))
		return err == nil
	}
	for _, k := range a {
		if !stored(k) {
			t.Errorf("A's record (%s | %s) was evicted; B's oldest should have been", k.Machine, k.Workload)
		}
	}
	if stored(b[0]) {
		t.Errorf("B's oldest record, its first plan entry, is still stored")
	}
	for _, k := range b[1:] {
		if !stored(k) {
			t.Errorf("B's record (%s | %s) was evicted; B's oldest should have been", k.Machine, k.Workload)
		}
	}
	w.submit(h, docs[0])
	if srv.Kept(docs[0]) != kept {
		t.Error("A's resubmission after an unrelated eviction did not reply from its kept reply")
	}
}

// TestKeptReplySurvivesUnrelatedChanges pins when a kept reply answers
// a resubmission: while none of the store entries it was resolved from
// has been dropped. An identical re-Put of one of the suite's records,
// or the quarantine of an unrelated damaged record, leaves it answering;
// the reply is byte-identical, its plan event is all store hits, and the
// store counts one hit per plan entry and no miss.
func TestKeptReplySurvivesUnrelatedChanges(t *testing.T) {
	dir := t.TempDir()
	fill, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs, plan := syntheticRecords(t, fill, "fig8")
	damaged := exp.CachedResult{Machine: "{}", Workload: "{}"}
	if err := fill.Put(damaged); err != nil {
		t.Fatal(err)
	}
	hash := store.HashKey(exp.Key{Machine: damaged.Machine, Workload: damaged.Workload})
	path := filepath.Join(dir, hash[:2], hash+".json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	srv, err := serve.New(serve.Config{Store: st, LocalParallel: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return reg.Counter(name, "").Value() }
	h := srv.Handler()
	w := &replyWriter{header: http.Header{}}
	w.submit(h, docs[0])
	want := bytes.Clone(w.body.Bytes())
	kept := srv.Kept(docs[0])
	if kept == nil || !bytes.Equal(*kept, want) {
		t.Fatal("the all-hit reply is not the reply kept")
	}

	k0 := exp.KeyOf(plan[0])
	for _, change := range []struct {
		what string
		do   func() error
	}{
		{"an identical re-Put of one of its records", func() error {
			return st.Put(exp.CachedResult{Machine: k0.Machine, Workload: k0.Workload, R: madeUp(0)})
		}},
		{"the quarantine of an unrelated damaged record", func() error {
			if _, ok, err := st.Get(exp.Key{Machine: damaged.Machine, Workload: damaged.Workload}); ok || err != nil {
				return fmt.Errorf("the damaged record reads as ok=%v, err=%v; want a miss", ok, err)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				return fmt.Errorf("the damaged record was not quarantined: %v", err)
			}
			return nil
		}},
	} {
		if err := change.do(); err != nil {
			t.Fatal(err)
		}
		hits, misses := counter("expq_store_hits_total"), counter("expq_store_misses_total")
		w.submit(h, docs[0])
		if !bytes.Equal(w.body.Bytes(), want) {
			t.Errorf("after %s: the reply differs:\n%.300s\nwant\n%.300s", change.what, w.body.Bytes(), want)
		}
		if evs := events(t, w.body.Bytes()); evs[0].Event != "plan" || evs[0].StoreHits != len(plan) || evs[0].Dispatched != 0 || evs[0].Attached != 0 {
			t.Errorf("after %s: plan event %+v, want %d store hits", change.what, evs[0], len(plan))
		}
		if d := counter("expq_store_hits_total") - hits; d != int64(len(plan)) {
			t.Errorf("after %s: the resubmission counted %d store hits, want %d", change.what, d, len(plan))
		}
		if d := counter("expq_store_misses_total") - misses; d != 0 {
			t.Errorf("after %s: the resubmission counted %d store misses, want 0", change.what, d)
		}
		if srv.Kept(docs[0]) != kept {
			t.Errorf("after %s: the resubmission replaced the kept reply rather than answering with it", change.what)
		}
	}
}
