package exp_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/spec"
	"icfp/internal/store"
	"icfp/internal/workload"
)

// TestSnapshotDeterministicOrder pins that a snapshot's entry order does
// not depend on map iteration, so persisted result sets diff cleanly.
func TestSnapshotDeterministicOrder(t *testing.T) {
	c := exp.NewCache()
	jobs := []exp.Job{
		planJob("z", spec.ModelICFP, workload.ScenarioChains),
		planJob("y", spec.ModelInOrder, workload.ScenarioChains),
		planJob("x", spec.ModelInOrder, workload.ScenarioLoneL2),
	}
	if _, err := exp.Run(jobs, exp.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.Machine > b.Machine || (a.Machine == b.Machine && a.Workload > b.Workload) {
			t.Errorf("snapshot not sorted at %d: %+v then %+v", i, a, b)
		}
	}
}

// persistJobs is a pair of distinct, cheap, real jobs.
func persistJobs() []exp.Job {
	return []exp.Job{
		planJob("a", spec.ModelInOrder, workload.ScenarioLoneL2),
		planJob("b", spec.ModelICFP, workload.ScenarioLoneL2),
	}
}

// runCache runs jobs on a fresh cache and returns it.
func runCache(t *testing.T, jobs []exp.Job) *exp.Cache {
	t.Helper()
	c := exp.NewCache()
	if _, err := exp.Run(jobs, exp.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSnapshotRoundTripsCurrentVersion pins the cache's half of the
// persisted format: Cache.Snapshot entries, keyed by canonical specs,
// survive a JSON round trip (the layout of store records and dist
// result frames), and AddResults of them pre-fills a fresh cache so a
// rerun simulates nothing.
func TestSnapshotRoundTripsCurrentVersion(t *testing.T) {
	c := runCache(t, persistJobs())
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var entries []exp.CachedResult
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("round trip kept %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		// Keys are canonical spec encodings, not labels or hashes.
		if !strings.Contains(e.Machine, `"model"`) {
			t.Errorf("entry machine key %q is not a canonical machine spec", e.Machine)
		}
	}
	fresh := exp.NewCache()
	fresh.AddResults(entries)
	if _, err := exp.Run(persistJobs(), exp.WithCache(fresh)); err != nil {
		t.Fatal(err)
	}
	if fresh.Simulations() != 0 || !reflect.DeepEqual(fresh.Snapshot(), c.Snapshot()) {
		t.Errorf("rerun on the reloaded cache simulated %d jobs or changed a result", fresh.Simulations())
	}
}

// TestPutCachedErrorNamesPath pins that storing a cache's result fails
// with an error naming where it tried to write. A store whose
// directory is gone and cannot be recreated (a file now sits at its
// path) fails for every user, including root; the store's own tests
// cover a read-only directory.
func TestPutCachedErrorNamesPath(t *testing.T) {
	c := runCache(t, persistJobs()[:1])
	e := c.Snapshot()[0]
	t.Run("missing dir", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "store")
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok, err := st.PutCached(c, exp.Key{Machine: e.Machine, Workload: e.Workload})
		if !ok || err == nil {
			t.Fatalf("saving into a missing store directory = ok=%v err=%v, want an error", ok, err)
		}
		if !strings.Contains(err.Error(), dir) {
			t.Errorf("error %q does not name the store path %q", err, dir)
		}
	})
}
