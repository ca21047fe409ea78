//go:build !race

package registry_test

import (
	"bytes"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/pipeline"
)

// Allocations of rendering fig6's table (750 jobs at the tests' scale;
// 50 cells, 25 of them a geomean over 24 benchmarks) from results in
// hand, name index included, on amd64 with Go 1.24, and 1.2 times that:
// the limit TestRenderBuiltinAllocs holds a builtin render to. Building
// a string per job name it looked up cost 3,291.
const (
	renderFig6Allocs      = 150
	renderFig6AllocsLimit = renderFig6Allocs * 1.2
)

// TestRenderBuiltinAllocs pins that a builtin render costs work per
// table cell, not per job name: fig6's renderer reads every one of its
// 750 results, and the whole render allocates a fraction of that. The
// race detector's instrumentation allocates too, so the file builds
// without it only.
func TestRenderBuiltinAllocs(t *testing.T) {
	s, err := registry.Describe("fig6", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	res := make([]pipeline.Result, len(s.Jobs))
	for i := range res {
		res[i] = pipeline.Result{Cycles: int64(10_000 + 37*i), Insts: 8_000}
	}
	var out bytes.Buffer
	render := func() {
		out.Reset()
		if err := registry.RenderSuite(&out, s, exp.Collect(s.Jobs, nil, res)); err != nil {
			t.Fatal(err)
		}
	}
	render() // the output buffer's growth
	allocs := testing.AllocsPerRun(20, render)
	t.Logf("rendering fig6 from %d results: %.0f allocations", len(s.Jobs), allocs)
	if allocs > renderFig6AllocsLimit {
		t.Errorf("%.0f allocations per render, over %.0f (%d + 20%%)", allocs, renderFig6AllocsLimit, renderFig6Allocs)
	}
}
