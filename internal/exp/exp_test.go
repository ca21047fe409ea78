package exp_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// scenarioJobs is a small all-real job set: every Figure 1 scenario on
// every machine.
func scenarioJobs() []exp.Job {
	var jobs []exp.Job
	for _, sc := range workload.AllScenarios {
		for _, m := range sim.PaperMachines() {
			mach := m.Machine
			mach.Overrides = &spec.Overrides{Warmup: spec.Int(0)}
			jobs = append(jobs, exp.Job{Name: string(sc) + "/" + m.Label, Machine: mach, Workload: spec.ScenarioWorkload(sc)})
		}
	}
	return jobs
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	serial, err := exp.Run(scenarioJobs(), exp.Parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := exp.Run(scenarioJobs(), exp.Parallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("result sets differ between -parallel 1 and -parallel 8")
	}
}

func TestRunRejectsMalformedJobs(t *testing.T) {
	good := scenarioJobs()[0]
	badMachine := good
	badMachine.Machine.Model = "not-a-model"
	badWorkload := good
	badWorkload.Workload = spec.Workload{SPEC: "mcf", Scenario: "a-lone-l2"}
	noName := good
	noName.Name = ""
	for _, tc := range []struct {
		name string
		jobs []exp.Job
	}{
		{"duplicate names", []exp.Job{good, good}},
		{"empty name", []exp.Job{noName}},
		{"invalid machine spec", []exp.Job{badMachine}},
		{"invalid workload spec", []exp.Job{badWorkload}},
	} {
		if _, err := exp.Run(tc.jobs); err == nil {
			t.Errorf("%s: Run succeeded, want error", tc.name)
		}
		if _, err := exp.Plan(tc.jobs); err == nil {
			t.Errorf("%s: Plan succeeded, want error", tc.name)
		}
	}
}

// TestCanonicalKeysSeparateConfigs pins the new cache identity: keys are
// canonical spec encodings, so jobs differing in any override (top-level
// or nested) get distinct keys, and identical specs share one.
func TestCanonicalKeysSeparateConfigs(t *testing.T) {
	base := exp.Job{Machine: spec.Machine{Model: spec.ModelICFP}, Workload: spec.SPECWorkload("mcf", 1000)}
	same := exp.Job{Machine: spec.Machine{Model: spec.ModelICFP}, Workload: spec.SPECWorkload("mcf", 1000)}
	if base.Key() != same.Key() {
		t.Error("equal specs must share a key")
	}
	poison := base
	poison.Machine.Overrides = &spec.Overrides{PoisonBits: spec.Int(1)}
	if base.Key() == poison.Key() {
		t.Error("jobs differing in PoisonBits must not share a key")
	}
	lat := base
	lat.Machine.Overrides = &spec.Overrides{L2HitLat: spec.Int(21)}
	if base.Key() == lat.Key() || poison.Key() == lat.Key() {
		t.Error("jobs differing in hierarchy overrides must not share a key")
	}
	wl := base
	wl.Workload = spec.SPECWorkload("mcf", 1001)
	if base.Key() == wl.Key() {
		t.Error("jobs differing in workload length must not share a key")
	}
}

func TestResultSetJSONRoundTrip(t *testing.T) {
	rs, err := exp.Run(scenarioJobs()[:10], exp.Parallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Results []exp.Result `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Results(), back.Results) {
		t.Error("result set changed across a JSON round trip")
	}
}

func TestResultSetReductions(t *testing.T) {
	jobs := scenarioJobs()
	rs, err := exp.Run(jobs[:4], exp.Parallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := jobs[0].Name, jobs[1].Name
	want := rs.MustGet(a).SpeedupOver(rs.MustGet(b))
	if sp := rs.Speedup(a, b); sp != want {
		t.Errorf("Speedup = %.3f%%, want %.3f%%", sp, want)
	}
	geo := rs.GeoMeanSpeedup([][2]string{{a, b}, {a, b}})
	ratio := float64(rs.MustGet(b).Cycles) / float64(rs.MustGet(a).Cycles)
	if wantGeo := (ratio - 1) * 100; geo < wantGeo-1e-9 || geo > wantGeo+1e-9 {
		t.Errorf("GeoMeanSpeedup = %.6f%%, want %.6f%%", geo, wantGeo)
	}
	if g := exp.GeoMeanPercent([]float64{100, 100}); g != 100 {
		t.Errorf("GeoMeanPercent = %.1f%%, want +100%%", g)
	}
	if _, ok := rs.Get("missing"); ok {
		t.Error("Get of a missing name must report absence")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustGet of a missing name must panic")
			}
		}()
		rs.MustGet("missing")
	}()
}

// TestResultSetGetFirstMatch pins Get's lookup contract: sets collected
// in job order and through a plan's index answer alike, with the first
// result of a duplicated name, and absence for an unknown one. The first
// Get builds the index, and concurrent first calls must not race (go
// test -race).
func TestResultSetGetFirstMatch(t *testing.T) {
	jobs := []exp.Job{{Name: "a"}, {Name: "b"}, {Name: "a"}}
	for label, rs := range map[string]*exp.ResultSet{
		"job order": exp.Collect(jobs, nil, []pipeline.Result{{Cycles: 1}, {Cycles: 2}, {Cycles: 3}}),
		"planned":   exp.Collect(jobs, []int{2, 0, 1}, []pipeline.Result{{Cycles: 2}, {Cycles: 3}, {Cycles: 1}}),
	} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for name, want := range map[string]int64{"a": 1, "b": 2} {
					if r, ok := rs.Get(name); !ok || r.R.Cycles != want {
						t.Errorf("%s: Get(%q) = cycles %d, ok %v; want the first match, cycles %d", label, name, r.R.Cycles, ok, want)
					}
				}
				if _, ok := rs.Get("c"); ok {
					t.Errorf("%s: Get of a missing name reported a result", label)
				}
			}()
		}
		wg.Wait()
	}
}

func TestJobNamesIndexResults(t *testing.T) {
	jobs := scenarioJobs()
	rs, err := exp.Run(jobs, exp.Parallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != len(jobs) {
		t.Fatalf("results = %d, want %d", rs.Len(), len(jobs))
	}
	results := rs.Results()
	for i, j := range jobs {
		if results[i].Name != j.Name {
			t.Fatalf("result %d is %q, want job order preserved (%q)", i, results[i].Name, j.Name)
		}
		if !reflect.DeepEqual(results[i].Workload, j.Workload) {
			t.Fatalf("result %d workload %+v, want %+v", i, results[i].Workload, j.Workload)
		}
	}
}

// TestRunCancel pins the drain contract behind elastic worker leaves: a
// canceled run stops simulating, returns ErrCanceled, and leaves the
// shared cache consistent (no torn entries) for whatever did complete.
func TestRunCancel(t *testing.T) {
	jobs := scenarioJobs()[:4]
	cache := exp.NewCache()

	// Canceled before it starts: nothing simulates.
	canceled := make(chan struct{})
	close(canceled)
	_, err := exp.Run(jobs, exp.WithCache(cache), exp.Cancel(canceled))
	if !errors.Is(err, exp.ErrCanceled) {
		t.Fatalf("pre-canceled run error = %v, want ErrCanceled", err)
	}
	if got := cache.Simulations(); got != 0 {
		t.Errorf("pre-canceled run simulated %d jobs, want 0", got)
	}

	// An open cancel channel changes nothing.
	open := make(chan struct{})
	if _, err := exp.Run(jobs, exp.WithCache(cache), exp.Cancel(open)); err != nil {
		t.Fatalf("run with an open cancel channel: %v", err)
	}
	if got := cache.Simulations(); got != len(jobs) {
		t.Errorf("run simulated %d jobs, want %d", got, len(jobs))
	}
}
