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
// A set reads its jobs and their simulations' results in place (Collect):
// it copies neither, so neither may change while the set is in use. The
// first lookup by name indexes the jobs, so renderers, which look up a
// result or two per cell, find each in O(1).
type ResultSet struct {
	jobs []Job
	res  []pipeline.Result
	at   []int // res[at[j]] is jobs[j]'s result; nil when res is in job order

	indexOnce sync.Once
	byName    map[string]int // name → index of its first job
}

// Collect returns the result set of jobs whose results are res. With a
// nil at, res[j] is jobs[j]'s result; otherwise it is res[at[j]], so a
// plan's results serve every job that names the same simulation (at as
// PlanValidated returned it). It neither validates nor keys anything,
// simulates nothing and copies nothing.
func Collect(jobs []Job, at []int, res []pipeline.Result) *ResultSet {
	return &ResultSet{jobs: jobs, res: res, at: at}
}

// Len returns the number of results.
func (rs *ResultSet) Len() int { return len(rs.jobs) }

// At returns the name and the result of job j, in job order.
func (rs *ResultSet) At(j int) (string, *pipeline.Result) {
	i := j
	if rs.at != nil {
		i = rs.at[j]
	}
	return rs.jobs[j].Name, &rs.res[i]
}

// full returns job j's full Result.
func (rs *ResultSet) full(j int) Result {
	name, r := rs.At(j)
	return Result{Name: name, Machine: rs.jobs[j].Machine, Workload: rs.jobs[j].Workload, R: *r}
}

// Results returns every job's full Result, in job order.
func (rs *ResultSet) Results() []Result {
	out := make([]Result, rs.Len())
	for j := range out {
		out[j] = rs.full(j)
	}
	return out
}

// Slice returns the set of jobs [lo, hi), sharing this set's storage.
func (rs *ResultSet) Slice(lo, hi int) *ResultSet {
	if rs.at != nil {
		return Collect(rs.jobs[lo:hi:hi], rs.at[lo:hi:hi], rs.res)
	}
	return Collect(rs.jobs[lo:hi:hi], nil, rs.res[lo:hi:hi])
}

// names returns the set's name index: each name → the index of its
// first job. The first call builds it; its keys are the jobs' own names.
func (rs *ResultSet) names() map[string]int {
	rs.indexOnce.Do(func() {
		rs.byName = make(map[string]int, len(rs.jobs))
		for j := range rs.jobs {
			if _, dup := rs.byName[rs.jobs[j].Name]; !dup {
				rs.byName[rs.jobs[j].Name] = j
			}
		}
	})
	return rs.byName
}

// index returns the index of the first job of the given name.
func (rs *ResultSet) index(name string) (int, bool) {
	j, ok := rs.names()[name]
	return j, ok
}

// Find returns the result of the first job named name. It allocates
// nothing (indexing a map by string(name) copies no bytes), so a renderer
// can build every name it looks up in one reused buffer.
func (rs *ResultSet) Find(name []byte) (*pipeline.Result, bool) {
	j, ok := rs.names()[string(name)]
	if !ok {
		return nil, false
	}
	_, r := rs.At(j)
	return r, true
}

// Get returns the first result of the given name.
func (rs *ResultSet) Get(name string) (Result, bool) {
	j, ok := rs.index(name)
	if !ok {
		return Result{}, false
	}
	return rs.full(j), true
}

// must returns the named result and panics if it is absent — the
// harness analogue of an out-of-range index, indicating a job-set bug.
func (rs *ResultSet) must(name string) *pipeline.Result {
	j, ok := rs.index(name)
	if !ok {
		panic(fmt.Sprintf("exp: no result named %q", name))
	}
	_, r := rs.At(j)
	return r
}

// MustGet returns the named result and panics if it is absent.
func (rs *ResultSet) MustGet(name string) pipeline.Result { return *rs.must(name) }

// Speedup returns the percent speedup of the named test run over the
// named base run (positive means test is faster).
func (rs *ResultSet) Speedup(test, base string) float64 {
	return rs.must(test).SpeedupOver(*rs.must(base))
}

// SpeedupCI95 returns the percent speedup of test over base together
// with its 95% half-width in percentage points, propagating both runs'
// sampling CIs through the CPI ratio (relative half-widths add in
// quadrature; see stats.RatioCI95). Full runs carry zero CIs, so their
// half-width is 0 and the speedup value itself always matches
// ResultSet.Speedup exactly.
func SpeedupCI95(test, base *pipeline.Result) (speedupPct, ciPct float64) {
	_, ci := stats.RatioCI95(base.CPI(), base.SampleCPICI95, test.CPI(), test.SampleCPICI95)
	return test.SpeedupOver(*base), ci * 100
}

// GeoMeanSpeedup returns the geometric-mean percent speedup over a list
// of (test, base) result pairs — the reduction behind every "geomean" row
// in the paper's figures.
func GeoMeanSpeedup(pairs [][2]*pipeline.Result) float64 {
	ratios := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		ratios = append(ratios, float64(p[1].Cycles)/float64(p[0].Cycles))
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

// resultsJSON is a result set's JSON form.
type resultsJSON struct {
	Results []Result `json:"results"`
}

// MarshalJSON encodes the set as {"results": [...]}, one full Result
// per job.
func (rs *ResultSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultsJSON{Results: rs.Results()})
}

// WriteJSON writes the result set as indented JSON.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}
