//go:build !race

package serve_test

import (
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Allocations of one all-hit fig6 submission (750 jobs, at the tests'
// scale) through Handler, on amd64 with Go 1.24, and 1.2 times those:
// the limits TestSubmitHitAllocs holds the hit path to. A resubmission
// of a document the server has prepared reads it, looks its plan up in
// the store, finds the results equal to the ones its kept output was
// rendered from and replies with that output; a document's first
// submission also decodes, plans and renders it. Rendering every
// resubmission cost 185 allocations and 0.41 MB; copying the document,
// growing the job slice, encoding every job's key and building a string
// per job name the render looked up, on every submission, 4,864
// allocations and 1.30 MB.
const (
	hitAllocs   = 27
	hitBytes    = 375_100
	firstAllocs = 287
	firstBytes  = 903_500
)

// TestSubmitHitAllocs pins what a submission answered wholly from the
// store allocates, for a resubmitted document and for a document's first
// submission. The race detector's instrumentation allocates too, so the
// file builds without it only.
func TestSubmitHitAllocs(t *testing.T) {
	docs, _, srv := syntheticServer(t, "fig6")
	h := srv.Handler()
	w := &replyWriter{header: http.Header{}}
	doc := docs[0]
	submit := func() { w.submit(h, doc) }
	submit() // the store's first read of each record, the reply buffer's growth
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("status %d: %s", w.code, w.body.Bytes())
	}
	measure(t, "resubmitted", submit, hitAllocs, hitBytes)

	// Distinct documents of the same suite: trailing whitespace differs.
	var fresh [][]byte
	for i := range 2*runs + 1 {
		fresh = append(fresh, append(slices.Clip(doc), strings.Repeat(" ", i+1)...))
	}
	next := 0
	measure(t, "first", func() {
		doc = fresh[next]
		next++
		submit()
	}, firstAllocs, firstBytes)
}

const runs = 20

// measure runs submit and fails unless its allocations per run stay
// within 1.2 times allocs and bytes.
func measure(t *testing.T, what string, submit func(), allocs, bytes float64) {
	t.Helper()
	got := testing.AllocsPerRun(runs, submit)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs - 1 {
		submit()
	}
	runtime.ReadMemStats(&after)
	gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs - 1)
	t.Logf("an all-hit fig6 submission, %s document: %.0f allocations, %.0f bytes", what, got, gotBytes)
	if got > allocs*1.2 {
		t.Errorf("%s document: %.0f allocations per submission, over %.0f (%.0f + 20%%)", what, got, allocs*1.2, allocs)
	}
	if gotBytes > bytes*1.2 {
		t.Errorf("%s document: %.0f bytes allocated per submission, over %.0f (%.0f + 20%%)", what, gotBytes, bytes*1.2, bytes)
	}
}
