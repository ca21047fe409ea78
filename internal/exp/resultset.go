package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/stats"
)

// Result is one job's outcome: the job's name, its self-describing
// machine and workload specs, and the simulation result. Exported result
// sets therefore carry everything needed to reproduce each number.
type Result struct {
	Name     string          `json:"name"`
	Machine  spec.Machine    `json:"machine"`
	Workload spec.Workload   `json:"workload"`
	R        pipeline.Result `json:"result"`
}

// ResultSet holds run results in deterministic (job submission) order and
// provides the reductions the paper's figures are built from.
//
// The first Get indexes the results by name, so renderers, which call Get
// once per cell, look each up in O(1); Results must not be modified once
// Get has been called.
type ResultSet struct {
	Results []Result `json:"results"`

	indexOnce sync.Once
	byName    map[string]int // name → index of its first result
}

// Len returns the number of results.
func (rs *ResultSet) Len() int { return len(rs.Results) }

// Get returns the first result of the given name.
func (rs *ResultSet) Get(name string) (Result, bool) {
	rs.indexOnce.Do(func() {
		rs.byName = make(map[string]int, len(rs.Results))
		for i := range rs.Results {
			if _, dup := rs.byName[rs.Results[i].Name]; !dup {
				rs.byName[rs.Results[i].Name] = i
			}
		}
	})
	i, ok := rs.byName[name]
	if !ok {
		return Result{}, false
	}
	return rs.Results[i], true
}

// MustGet returns the named result and panics if it is absent — the
// harness analogue of an out-of-range index, indicating a job-set bug.
func (rs *ResultSet) MustGet(name string) pipeline.Result {
	r, ok := rs.Get(name)
	if !ok {
		panic(fmt.Sprintf("exp: no result named %q", name))
	}
	return r.R
}

// Speedup returns the percent speedup of the named test run over the
// named base run (positive means test is faster).
func (rs *ResultSet) Speedup(test, base string) float64 {
	return rs.MustGet(test).SpeedupOver(rs.MustGet(base))
}

// SpeedupCI95 returns Speedup(test, base) together with its 95%
// half-width in percentage points, propagating both runs' sampling CIs
// through the CPI ratio (relative half-widths add in quadrature; see
// stats.RatioCI95). Full runs carry zero CIs, so their half-width is 0
// and the speedup value itself always matches Speedup exactly.
func (rs *ResultSet) SpeedupCI95(test, base string) (speedupPct, ciPct float64) {
	t, b := rs.MustGet(test), rs.MustGet(base)
	_, ci := stats.RatioCI95(b.CPI(), b.SampleCPICI95, t.CPI(), t.SampleCPICI95)
	return t.SpeedupOver(b), ci * 100
}

// GeoMeanSpeedup returns the geometric-mean percent speedup over a list
// of (test, base) result-name pairs — the reduction behind every
// "geomean" row in the paper's figures.
func (rs *ResultSet) GeoMeanSpeedup(pairs [][2]string) float64 {
	ratios := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		ratios = append(ratios, float64(rs.MustGet(p[1]).Cycles)/float64(rs.MustGet(p[0]).Cycles))
	}
	return (stats.GeoMean(ratios) - 1) * 100
}

// GeoMeanPercent folds per-item percent speedups into their geometric
// mean, for callers that already reduced to percentages.
func GeoMeanPercent(speedups []float64) float64 {
	ratios := make([]float64, 0, len(speedups))
	for _, s := range speedups {
		ratios = append(ratios, 1+s/100)
	}
	return (stats.GeoMean(ratios) - 1) * 100
}

// WriteJSON writes the result set as indented JSON.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// ReadJSON parses a result set previously written by WriteJSON.
func ReadJSON(r io.Reader) (*ResultSet, error) {
	var rs ResultSet
	if err := json.NewDecoder(r).Decode(&rs); err != nil {
		return nil, fmt.Errorf("exp: decoding result set: %w", err)
	}
	return &rs, nil
}
