package serve_test

import (
	"bytes"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"icfp/internal/serve"
)

// TestPreparedSuites pins the server's memo of prepared suites: a
// resubmitted document is answered byte-identically from the suite
// prepared for it, also by concurrent submissions; a document that
// differs in any byte is prepared afresh; one that fails to decode is
// not kept; and however many distinct documents arrive, the memo stays
// within its bounds.
func TestPreparedSuites(t *testing.T) {
	docs, _, srv := syntheticServer(t, "fig7")
	doc := docs[0]
	h := srv.Handler()
	w := &replyWriter{header: http.Header{}}
	w.submit(h, doc)
	want := bytes.Clone(w.body.Bytes())
	held := func(wantDocs, wantBytes int) {
		t.Helper()
		if n, size := srv.Prepared(); n != wantDocs || size != wantBytes {
			t.Errorf("the memo holds %d documents, %d bytes; want %d, %d", n, size, wantDocs, wantBytes)
		}
	}
	held(1, len(doc))

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
	held(1, len(doc))

	w.submit(h, []byte(`{"name":"x","jobs":[{}]}`))
	if w.code != http.StatusBadRequest {
		t.Errorf("an invalid suite: status %d, want 400", w.code)
	}
	held(1, len(doc))

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
			held(2, 2*len(doc)+1)
		}
	}
}
