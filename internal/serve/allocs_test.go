//go:build !race

package serve_test

import (
	"net/http"
	"runtime"
	"testing"
)

// Allocations of one all-hit fig6 submission (750 jobs, at the tests'
// scale) through Handler, on amd64 with Go 1.24, and 1.2 times those:
// the limits TestSubmitHitAllocs holds the hit path to.
const (
	hitAllocs      = 4864
	hitBytes       = 1_301_100
	hitAllocsLimit = hitAllocs * 1.2
	hitBytesLimit  = hitBytes * 1.2
)

// TestSubmitHitAllocs pins what a submission answered wholly from the
// store allocates: reading the document, decoding and planning it, the
// store lookups, rendering and the reply. The race detector's
// instrumentation allocates too, so the file builds without it only.
func TestSubmitHitAllocs(t *testing.T) {
	doc, _, srv := syntheticServer(t, "fig6")
	h := srv.Handler()
	w := &replyWriter{header: http.Header{}}
	submit := func() { w.submit(h, doc) }
	submit() // the store's first read of each record, the reply buffer's growth
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("status %d: %s", w.code, w.body.Bytes())
	}

	allocs := testing.AllocsPerRun(20, submit)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		submit()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("an all-hit fig6 submission: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > hitAllocsLimit {
		t.Errorf("%.0f allocations per submission, over %.0f (%d + 20%%)", allocs, hitAllocsLimit, hitAllocs)
	}
	if bytes > hitBytesLimit {
		t.Errorf("%.0f bytes allocated per submission, over %.0f (%d + 20%%)", bytes, hitBytesLimit, hitBytes)
	}
}
