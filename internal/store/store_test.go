package store_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"icfp/internal/exp"
	"icfp/internal/obs"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/store"
	"icfp/internal/workload"
)

// rec fabricates a distinct result record. The store treats machine and
// workload as opaque canonical strings and never interprets the result,
// so synthetic identities exercise it fully.
func rec(machine, workload string, cycles int64) exp.CachedResult {
	return exp.CachedResult{
		Machine:   machine,
		Workload:  workload,
		R:         pipeline.Result{Cycles: cycles, Insts: cycles * 2},
		ElapsedNS: 1000,
	}
}

func key(r exp.CachedResult) exp.Key {
	return exp.Key{Machine: r.Machine, Workload: r.Workload}
}

func TestRoundTripAndLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rec(`{"m":1}`, `{"w":1}`, 42)
	if _, ok, err := s.Get(key(r)); err != nil || ok {
		t.Fatalf("empty store Get = ok=%v err=%v, want miss", ok, err)
	}
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key(r))
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if got.R.Cycles != 42 || got.ElapsedNS != 1000 {
		t.Errorf("round trip mangled record: %+v", got)
	}

	// The record must live at <dir>/<hash[:2]>/<hash>.json.
	hash := store.HashKey(key(r))
	path := filepath.Join(dir, hash[:2], hash+".json")
	if _, err := os.Stat(path); err != nil {
		t.Errorf("record not at content address %s: %v", path, err)
	}

	// A fresh Open of the same directory sees the record (persistence).
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Get(key(r)); err != nil || !ok {
		t.Errorf("reopened store lost the record: ok=%v err=%v", ok, err)
	}
	if s2.Len() != 1 || s2.Bytes() <= 0 {
		t.Errorf("reopened index Len=%d Bytes=%d, want 1 record with positive bytes", s2.Len(), s2.Bytes())
	}
}

// TestPreloadAndPersist pins the -store workflow of the CLIs: a run
// persists each result through PutCached as it completes, and the next
// run's Preload answers every planned key from the store, so it
// simulates nothing and reproduces the first run's results.
func TestPreloadAndPersist(t *testing.T) {
	var jobs []exp.Job
	for i, model := range []string{spec.ModelInOrder, spec.ModelICFP} {
		mach := spec.Machine{Model: model, Overrides: &spec.Overrides{Warmup: spec.Int(0)}}
		jobs = append(jobs, exp.Job{Name: fmt.Sprint(i), Machine: mach, Workload: spec.ScenarioWorkload(workload.ScenarioLoneL2)})
	}
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func() (*exp.Cache, *exp.ResultSet, int) {
		t.Helper()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cache := exp.NewCache()
		hits, err := s.Preload(cache, plan)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(jobs, exp.WithCache(cache), exp.OnRun(func(k exp.Key) {
			if _, ok, err := s.PutCached(cache, k); err != nil || !ok {
				t.Errorf("PutCached(%v) = ok=%v err=%v", k, ok, err)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		return cache, rs, hits
	}
	first, rs1, hits := run()
	if hits != 0 || first.Simulations() != 2 {
		t.Fatalf("cold run: %d store hits, %d simulations; want 0 and 2", hits, first.Simulations())
	}
	second, rs2, hits := run()
	if hits != 2 || second.Simulations() != 0 {
		t.Errorf("warm run: %d store hits, %d simulations; want 2 and 0", hits, second.Simulations())
	}
	for i := range jobs {
		_, r1 := rs1.At(i)
		_, r2 := rs2.At(i)
		if *r1 != *r2 {
			t.Errorf("job %d: result changed across the store round trip", i)
		}
	}
	for _, r := range second.Snapshot() {
		// Keys are canonical spec encodings, not labels or hashes, and
		// wall times survive the round trip.
		if !strings.Contains(r.Machine, `"model"`) || r.ElapsedNS <= 0 {
			t.Errorf("preloaded entry %s: not a canonical key or no elapsed time (%d ns)", r.Machine, r.ElapsedNS)
		}
	}
	if _, ok, err := (&store.Store{}).PutCached(exp.NewCache(), exp.KeyOf(plan[0])); ok || err != nil {
		t.Errorf("PutCached of a key the cache lacks = ok=%v err=%v, want a silent no-op", ok, err)
	}
}

// TestFirstWriterWins pins the optimistic-concurrency contract: a second
// Put of the identical result is a silent no-op (even with a different
// elapsed time, which describes the host, not the simulation), while a
// byte-different result is a fatal ConflictError naming the record path.
func TestFirstWriterWins(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rec("m", "w", 7)
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	dup := r
	dup.ElapsedNS = 999999 // a slower host re-ran it; still the same simulation
	if err := s.Put(dup); err != nil {
		t.Fatalf("identical re-Put errored: %v", err)
	}
	got, _, err := s.Get(key(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.ElapsedNS != 1000 {
		t.Errorf("re-Put replaced the first writer's record (elapsed %d, want 1000)", got.ElapsedNS)
	}

	bad := r
	bad.R.Cycles = 8 // a determinism violation
	err = s.Put(bad)
	var conflict *store.ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("conflicting Put returned %v, want *ConflictError", err)
	}
	hash := store.HashKey(key(r))
	if !strings.Contains(conflict.Path, hash) {
		t.Errorf("ConflictError path %q does not name the record file (hash %s)", conflict.Path, hash)
	}
	// The store keeps the original record.
	got, _, _ = s.Get(key(r))
	if got.R.Cycles != 7 {
		t.Errorf("conflict clobbered the stored result: cycles %d, want 7", got.R.Cycles)
	}
}

// TestEvictionLRU pins the bounded-size policy: once the byte bound is
// exceeded, least-recently-accessed records go first, and a Get refreshes
// a record's access time so hot entries survive.
func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	probe, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put(rec("m", "probe", 1)); err != nil {
		t.Fatal(err)
	}
	recBytes := probe.Bytes() // all synthetic records are near-identical size

	// Budget for three records; insert four, keeping the oldest hot.
	dir2 := t.TempDir()
	s, err := store.Open(dir2, store.Options{MaxBytes: recBytes*3 + recBytes/2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	var rs []exp.CachedResult
	for i := 0; i < 4; i++ {
		r := rec("m", fmt.Sprintf("w%d", i), int64(i+1))
		rs = append(rs, r)
		if i == 3 {
			// Refresh w0 so w1 is the LRU victim when w3 lands. The access
			// clock is time.Now(); a sleep keeps it strictly ordered even on
			// coarse filesystem timestamps (the index clock is in-memory).
			time.Sleep(5 * time.Millisecond)
			if _, ok, err := s.Get(key(rs[0])); err != nil || !ok {
				t.Fatalf("refresh Get: ok=%v err=%v", ok, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if s.Bytes() > recBytes*3+recBytes/2 {
		t.Errorf("store over budget after eviction: %d bytes", s.Bytes())
	}
	wantAlive := map[int]bool{0: true, 1: false, 2: true, 3: true}
	for i, r := range rs {
		_, ok, err := s.Get(key(r))
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantAlive[i] {
			t.Errorf("record w%d alive=%v, want %v (LRU must evict the stalest, not the hot-again oldest)", i, ok, wantAlive[i])
		}
	}
	if v := reg.Counter("expq_store_evictions_total", "").Value(); v != 1 {
		t.Errorf("evictions counter = %d, want 1", v)
	}
}

// TestRecordWithoutSamplingFieldsLoads pins schema compatibility: a
// record written before sampling existed (its result lacks the additive
// SampleIntervals/SampleCPICI95 fields) still loads under the same
// RecordVersion, and the new fields read zero — exactly the "additive
// fields only within a version" rule docs/ARCHITECTURE.md commits to.
func TestRecordWithoutSamplingFieldsLoads(t *testing.T) {
	sj := spec.Job{Machine: spec.Machine{Model: spec.ModelInOrder}, Workload: spec.SPECWorkload("mcf", 1000)}
	k := exp.KeyOf(sj)
	legacy := fmt.Sprintf(
		`{"version":%d,"machine":%q,"workload":%q,"result":{"Name":"mcf","Cycles":2000,"Insts":1000},"elapsed_ns":7}`,
		store.RecordVersion, k.Machine, k.Workload)
	dir := t.TempDir()
	path := recordPath(dir, k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := exp.NewCache()
	if hits, err := s.Preload(c, []spec.Job{sj}); err != nil || hits != 1 {
		t.Fatalf("preloading the legacy record: %d hits, err %v; want 1", hits, err)
	}
	r, ok := c.Lookup(k)
	if !ok {
		t.Fatal("legacy record not reachable under its canonical key")
	}
	if r.Cycles != 2000 || r.Insts != 1000 {
		t.Fatalf("legacy result corrupted: %+v", r)
	}
	if r.SampleIntervals != 0 || r.SampleCPICI95 != 0 {
		t.Fatalf("legacy result invented sampling statistics: %+v", r)
	}
}

// TestPutErrorNamesPath is the store half of the error-ergonomics
// satellite: a Put that cannot write must name the destination record
// path, whether the store root vanished or (as non-root) is read-only.
func TestPutErrorNamesPath(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rec("m", "w", 1)
	hash := store.HashKey(key(r))

	t.Run("missing root", func(t *testing.T) {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		err := s.Put(r)
		if err == nil {
			t.Skip("fanout mkdir recreated the root; covered by read-only dir")
		}
		if !strings.Contains(err.Error(), hash) {
			t.Errorf("error %q does not name the record (hash %s)", err, hash)
		}
	})
	t.Run("read-only dir", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("running as root: directory permissions are not enforced")
		}
		roDir := t.TempDir()
		s2, err := store.Open(roDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(roDir, 0o555); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Chmod(roDir, 0o755) })
		err = s2.Put(r)
		if err == nil {
			t.Fatal("Put into a read-only store directory succeeded")
		}
		if !strings.Contains(err.Error(), hash) {
			t.Errorf("error %q does not name the record (hash %s)", err, hash)
		}
	})
}

// TestConcurrentPutGet races many goroutines over one store — mixed
// Put/Get traffic on overlapping keys with eviction churn — and asserts
// no lost records among the keys that must survive. Run under -race in
// CI (the dist job's race sweep covers internal/...).
func TestConcurrentPutGet(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const keys = 32
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*keys)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				// All goroutines write the same deterministic result per key:
				// concurrent identical Puts must coexist (first-writer-wins).
				r := rec("m", fmt.Sprintf("w%d", i), int64(i))
				if err := s.Put(r); err != nil {
					errCh <- fmt.Errorf("goroutine %d put w%d: %w", g, i, err)
					return
				}
				if _, ok, err := s.Get(key(r)); err != nil || !ok {
					errCh <- fmt.Errorf("goroutine %d get w%d: ok=%v err=%v", g, i, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if s.Len() != keys {
		t.Errorf("store has %d records, want %d", s.Len(), keys)
	}
}

// TestConcurrentEviction races writers against the evictor: a tiny byte
// bound forces every Put to evict while other goroutines Get. Nothing
// here asserts which records survive (that depends on timing) — the
// assertions are no errors, no torn files, the bound holds, and no
// decoded copy outlives its eviction: every key whose file is gone
// misses in the evicting store, although its writer decoded it.
func TestConcurrentEviction(t *testing.T) {
	dir := t.TempDir()
	probe, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put(rec("m", "probe", 1)); err != nil {
		t.Fatal(err)
	}
	bound := probe.Bytes() * 4

	s, err := store.Open(t.TempDir(), store.Options{MaxBytes: bound})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				r := rec("m", fmt.Sprintf("g%d-w%d", g, i), int64(i))
				if err := s.Put(r); err != nil {
					errCh <- err
					return
				}
				s.Get(key(r)) // may miss: another goroutine's Put can evict it
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if s.Bytes() > bound {
		t.Errorf("store over budget under concurrent eviction: %d > %d", s.Bytes(), bound)
	}
	evicted := 0
	for g := 0; g < 4; g++ {
		for i := 0; i < 16; i++ {
			k := exp.Key{Machine: "m", Workload: fmt.Sprintf("g%d-w%d", g, i)}
			if _, err := os.Stat(recordPath(s.Dir(), k)); !os.IsNotExist(err) {
				continue
			}
			evicted++
			if _, ok, err := s.Get(k); err != nil || ok {
				t.Errorf("evicted record %v still served (ok=%v err=%v): its decoded copy outlived the eviction", k, ok, err)
			}
		}
	}
	if evicted == 0 {
		t.Error("a bound of four records evicted none of 64")
	}
	// Every surviving record must parse cleanly — no torn files.
	s2, err := store.Open(s.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		for i := 0; i < 16; i++ {
			k := exp.Key{Machine: "m", Workload: fmt.Sprintf("g%d-w%d", g, i)}
			if _, _, err := s2.Get(k); err != nil {
				t.Errorf("surviving record %v is torn: %v", k, err)
			}
		}
	}
}

// TestTwoProcessAppend is the multi-process half of the concurrency
// satellite: two separate OS processes append overlapping and disjoint
// key sets to one store directory through the public API, and every
// record must land intact — the temp+rename protocol makes concurrent
// writers safe without any cross-process locking.
func TestTwoProcessAppend(t *testing.T) {
	if os.Getenv("STORE_APPEND_HELPER") != "" {
		helperAppend(os.Getenv("STORE_APPEND_HELPER"), os.Getenv("STORE_APPEND_SET"))
		os.Exit(0)
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var procs []*exec.Cmd
	for _, set := range []string{"a", "b"} {
		cmd := exec.Command(exe, "-test.run", "^TestTwoProcessAppend$", "-test.v")
		cmd.Env = append(os.Environ(), "STORE_APPEND_HELPER="+dir, "STORE_APPEND_SET="+set)
		out, err := os.CreateTemp(t.TempDir(), "helper-*")
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
	}
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("helper process %d: %v", i, err)
		}
	}

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each helper writes 20 private keys and 10 shared ones (identical
	// deterministic results, so the overlap is first-writer-wins, not a
	// conflict): 50 distinct records total, none lost, none torn.
	want := 20 + 20 + 10
	if s.Len() != want {
		t.Errorf("store has %d records after two-process append, want %d", s.Len(), want)
	}
	for _, set := range []string{"a", "b", "shared"} {
		for i := 0; i < helperCount(set); i++ {
			k := exp.Key{Machine: "m", Workload: fmt.Sprintf("%s-%d", set, i)}
			if _, ok, err := s.Get(k); err != nil || !ok {
				t.Errorf("record %v lost or torn: ok=%v err=%v", k, ok, err)
			}
		}
	}
}

func helperCount(set string) int {
	if set == "shared" {
		return 10
	}
	return 20
}

// helperAppend is the body run inside each helper process.
func helperAppend(dir, set string) {
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	put := func(workload string, cycles int64) {
		if err := s.Put(rec("m", workload, cycles)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for i := 0; i < helperCount(set); i++ {
		put(fmt.Sprintf("%s-%d", set, i), int64(i))
		if i < helperCount("shared") {
			// Shared keys: both processes race to write the identical record.
			put(fmt.Sprintf("shared-%d", i), int64(i))
		}
	}
}

// TestInstrumentCounters pins the expq_store_* metric names the CI serve
// job greps for.
func TestInstrumentCounters(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	r := rec("m", "w", 1)
	s.Get(key(r)) // miss
	s.Put(r)      // put
	s.Get(key(r)) // hit
	for name, want := range map[string]int64{
		"expq_store_hits_total":   1,
		"expq_store_misses_total": 1,
		"expq_store_puts_total":   1,
	} {
		if v := reg.Counter(name, "").Value(); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

// recordPath is the content address of k's record file under dir.
func recordPath(dir string, k exp.Key) string {
	hash := store.HashKey(k)
	return filepath.Join(dir, hash[:2], hash+".json")
}

// decodeFile decodes a record file the way any reader of the on-disk
// format would, independently of the store's own reader.
func decodeFile(t *testing.T, path string) exp.CachedResult {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Version int `json:"version"`
		exp.CachedResult
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.CachedResult
}

// TestDecodedRecordMatchesFile pins that the decoded copy a hit is
// served from is exactly what decoding the file yields: after the Put
// that wrote it, and after reopening the store, for the Get that reads
// the file and for the Gets answered from memory after it.
func TestDecodedRecordMatchesFile(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := exp.CachedResult{
		Machine:  `{"model":"icfp","overrides":{"warmup":10000}}`,
		Workload: `{"fuzz":{"seed":9007199254740993},"n":60000}`,
		R: pipeline.Result{
			Name: "fuzz-102", Cycles: 987_654_321, Insts: 60_000,
			DCacheMissPerKI: 1.0 / 3, L2MissPerKI: 2.5e-7, DCacheMLP: 1.7976931348623157e308,
			BranchMispredicts: 1<<64 - 1, RallyPerKI: 0.1,
			SampleIntervals: 12, SampleCPICI95: 0.0123456789,
		},
		ElapsedNS: 123_456_789,
	}
	k := key(r)
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	want := decodeFile(t, recordPath(dir, k))
	for i := 0; i < 2; i++ {
		got, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get %d after Put: ok=%v err=%v", i, ok, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Get %d after Put = %+v, decoding the file gives %+v", i, got, want)
		}
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, ok, err := s2.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get %d after reopening: ok=%v err=%v", i, ok, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Get %d after reopening = %+v, decoding the file gives %+v", i, got, want)
		}
	}
}

// TestDecodedRecordsAcrossProcesses pins Get's cross-process contract:
// after another process evicts every record, a record this process had
// already decoded keeps serving (its bytes cannot differ, simulations
// being deterministic), while one it only indexed at Open reads as a
// miss.
func TestDecodedRecordsAcrossProcesses(t *testing.T) {
	if dir := os.Getenv("STORE_EVICT_HELPER"); dir != "" {
		// One record against a one-byte bound: every other record goes.
		s, err := store.Open(dir, store.Options{MaxBytes: 1})
		if err == nil {
			err = s.Put(rec("m", "evictor", 1))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir := t.TempDir()
	writer, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	read, unread := rec("m", "read", 1), rec("m", "unread", 2)
	for _, r := range []exp.CachedResult{read, unread} {
		if err := writer.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, ok, err := s.Get(key(read))
	if err != nil || !ok {
		t.Fatalf("Get before eviction: ok=%v err=%v", ok, err)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestDecodedRecordsAcrossProcesses$")
	cmd.Env = append(os.Environ(), "STORE_EVICT_HELPER="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("evicting process: %v\n%s", err, out)
	}
	for _, r := range []exp.CachedResult{read, unread} {
		if _, err := os.Stat(recordPath(dir, key(r))); !os.IsNotExist(err) {
			t.Fatalf("the other process left %s on disk (stat: %v)", r.Workload, err)
		}
	}

	got, ok, err := s.Get(key(read))
	if err != nil || !ok || got != want {
		t.Errorf("decoded record after another process evicted it: ok=%v err=%v got %+v, want %+v", ok, err, got, want)
	}
	if _, ok, err := s.Get(key(unread)); err != nil || ok {
		t.Errorf("never-read record after another process evicted it: ok=%v err=%v, want a miss", ok, err)
	}
}

// TestQuarantineDamagedRecord pins that one damaged record costs its key
// one re-simulation, not every later lookup: a record that no longer
// decodes is renamed to *.corrupt, counted, and read as a miss, and the
// key then stores and serves again. Whichever of Get and Put meets the
// damage first quarantines it.
func TestQuarantineDamagedRecord(t *testing.T) {
	for _, first := range []string{"Get", "Put"} {
		t.Run(first, func(t *testing.T) {
			dir := t.TempDir()
			writer, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r := rec("m", "w", 5)
			if err := writer.Put(r); err != nil {
				t.Fatal(err)
			}
			path := recordPath(dir, key(r))
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}

			s, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			s.Instrument(reg)
			if first == "Get" {
				if _, ok, err := s.Get(key(r)); err != nil || ok {
					t.Fatalf("Get of a damaged record: ok=%v err=%v, want a miss", ok, err)
				}
			}
			if err := s.Put(r); err != nil {
				t.Fatalf("Put over a damaged record: %v", err)
			}
			if v := reg.Counter("expq_store_corrupt_total", "").Value(); v != 1 {
				t.Errorf("expq_store_corrupt_total = %d, want 1", v)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("damaged record not kept aside: %v", err)
			}
			got, ok, err := s.Get(key(r))
			if err != nil || !ok || got != r {
				t.Errorf("Get after re-Put: ok=%v err=%v got %+v, want %+v", ok, err, got, r)
			}
			if s.Len() != 1 {
				t.Errorf("index holds %d records, want 1 (the .corrupt file is not a record)", s.Len())
			}
		})
	}
}

// TestUndecodableIsNotDamage pins what quarantine leaves alone: a record
// of a newer schema (this build cannot judge it) and a record holding
// another key stay errors on every lookup and every Put, and stay on
// disk unmodified.
func TestUndecodableIsNotDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	newer, other := rec("m", "newer", 1), rec("m", "other", 2)
	for _, c := range []struct {
		r    exp.CachedResult
		body string
	}{
		{newer, fmt.Sprintf(`{"version":%d,"machine":"m","workload":"newer","result":{}}`, store.RecordVersion+1)},
		{other, fmt.Sprintf(`{"version":%d,"machine":"m","workload":"someone-else","result":{}}`, store.RecordVersion)},
	} {
		path := recordPath(dir, key(c.r))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, ok, err := s.Get(key(c.r)); err == nil || ok {
				t.Errorf("%s: Get %d = ok=%v err=%v, want an error", c.r.Workload, i, ok, err)
			}
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s: record moved: %v", c.r.Workload, err)
		}
		// Nor may a Put replace it: overwriting a newer build's record
		// with this build's would silently downgrade it.
		if err := s.Put(c.r); err == nil {
			t.Errorf("%s: Put over the record succeeded, want an error", c.r.Workload)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != c.body {
			t.Errorf("%s: Put modified the record (err %v): %s", c.r.Workload, err, got)
		}
	}
	if v := reg.Counter("expq_store_corrupt_total", "").Value(); v != 0 {
		t.Errorf("expq_store_corrupt_total = %d, want 0", v)
	}
}

// TestEvictionRacesFirstReads races first reads of records this store
// indexed but never decoded against Puts that evict exactly those
// records. A Get can read a file just before its eviction removes it;
// the decoded copy it then keeps must not survive that eviction, so
// every key whose file is gone must still miss afterwards.
func TestEvictionRacesFirstReads(t *testing.T) {
	dir := t.TempDir()
	writer, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	keyAt := func(i int) exp.Key { return exp.Key{Machine: "m", Workload: fmt.Sprintf("old%d", i)} }
	for i := 0; i < n; i++ {
		if err := writer.Put(rec("m", keyAt(i).Workload, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.Open(dir, store.Options{MaxBytes: writer.Bytes() / 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := s.Get(keyAt(i)); err != nil {
					t.Error(err)
					return
				}
				i = (i + 7) % n
			}
		}(g)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(rec("m", fmt.Sprintf("new%d", i), int64(i))); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < n; i++ {
		if _, err := os.Stat(recordPath(dir, keyAt(i))); !os.IsNotExist(err) {
			continue
		}
		if _, ok, err := s.Get(keyAt(i)); err != nil || ok {
			t.Errorf("evicted record %v still served (ok=%v err=%v)", keyAt(i), ok, err)
		}
	}
}

// setMtime sets the record file of k to mtime t and returns the file's
// path.
func setMtime(t *testing.T, dir string, k exp.Key, at time.Time) string {
	t.Helper()
	path := recordPath(dir, k)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
	return path
}

// mtime returns the modification time of the file at path.
func mtime(t *testing.T, path string) time.Time {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.ModTime()
}

// TestHitsInsideIntervalWriteNothing pins that hits answered inside the
// touch interval leave the record file alone: repeated in-memory hits,
// and the first read after a reopen of a record touched less than an
// interval ago, keep its mtime exactly.
func TestHitsInsideIntervalWriteNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rec("m", "w", 1)
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-store.TouchInterval / 2).Truncate(time.Second)
	path := setMtime(t, dir, key(r), old)
	for i := 0; i < 5; i++ {
		if _, ok, err := s.Get(key(r)); err != nil || !ok {
			t.Fatalf("Get %d: ok=%v err=%v", i, ok, err)
		}
		if got := mtime(t, path); !got.Equal(old) {
			t.Fatalf("in-memory hit %d rewrote the mtime: %v, want %v", i, got, old)
		}
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := s2.Get(key(r)); err != nil || !ok {
			t.Fatalf("Get %d after reopening: ok=%v err=%v", i, ok, err)
		}
	}
	if got := mtime(t, path); !got.Equal(old) {
		t.Errorf("hits after reopening rewrote an mtime younger than the interval: %v, want %v", got, old)
	}
}

// TestHitAfterIntervalRefreshesMtime pins the other half of the policy:
// the first hit once the file's stamp is an interval old sets the mtime
// to the hit's time, and later hits inside the new interval leave it.
func TestHitAfterIntervalRefreshesMtime(t *testing.T) {
	clock := time.Now()
	defer store.SetClock(func() time.Time { return clock })()
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rec("m", "w", 1)
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	path := setMtime(t, dir, key(r), clock.Add(-time.Hour))

	clock = clock.Add(store.TouchInterval)
	if _, ok, err := s.Get(key(r)); err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	// Filesystems may store coarser timestamps than the clock's.
	refreshed := mtime(t, path)
	if d := clock.Sub(refreshed); d < 0 || d > 2*time.Second {
		t.Fatalf("hit after the interval left mtime %v, want about %v", refreshed, clock)
	}

	clock = clock.Add(store.TouchInterval - time.Second)
	if _, ok, err := s.Get(key(r)); err != nil || !ok {
		t.Fatalf("second Get: ok=%v err=%v", ok, err)
	}
	if got := mtime(t, path); !got.Equal(refreshed) {
		t.Errorf("hit inside the new interval rewrote the mtime: %v, want %v", got, refreshed)
	}
}

// TestEvictionLRUAfterReopen pins that the LRU order eviction runs on
// survives a restart through the refreshed mtimes: the oldest-written
// record, hit again an interval later, outlives the stalest one when a
// reopened bounded store evicts.
func TestEvictionLRUAfterReopen(t *testing.T) {
	clock := time.Now()
	defer store.SetClock(func() time.Time { return clock })()
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rs []exp.CachedResult
	for i := 0; i < 3; i++ {
		r := rec("m", fmt.Sprintf("w%d", i), int64(i+1))
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
		// Written oldest first, hours apart, whatever the filesystem's
		// timestamp granularity.
		setMtime(t, dir, key(r), clock.Add(time.Duration(i-3)*time.Hour))
		rs = append(rs, r)
	}
	recBytes := s.Bytes() / 3

	clock = clock.Add(store.TouchInterval)
	if _, ok, err := s.Get(key(rs[0])); err != nil || !ok {
		t.Fatalf("refresh Get: ok=%v err=%v", ok, err)
	}

	s2, err := store.Open(dir, store.Options{MaxBytes: recBytes*3 + recBytes/2})
	if err != nil {
		t.Fatal(err)
	}
	r3 := rec("m", "w3", 4)
	if err := s2.Put(r3); err != nil {
		t.Fatal(err)
	}
	wantAlive := map[int]bool{0: true, 1: false, 2: true, 3: true}
	for i, r := range append(rs, r3) {
		_, ok, err := s2.Get(key(r))
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantAlive[i] {
			t.Errorf("after reopening, record w%d alive=%v, want %v (eviction must take the stalest mtime)", i, ok, wantAlive[i])
		}
	}
}

// storeGetHitAllocs is the allocations of one Get answered from memory.
// The count is deterministic, so the bound is exact.
const storeGetHitAllocs = 0

// TestStoreGetHitAllocs pins what a repeat hit costs the allocator: the
// key index lookup and the result copy allocate nothing.
func TestStoreGetHitAllocs(t *testing.T) {
	clock := time.Now()
	defer store.SetClock(func() time.Time { return clock })()
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(obs.NewRegistry())
	r := rec(`{"model":"icfp"}`, `{"spec":"mcf","n":20000}`, 1)
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	k := key(r)
	got := testing.AllocsPerRun(100, func() {
		if _, ok, err := s.Get(k); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	})
	if got != storeGetHitAllocs {
		t.Errorf("%.0f allocs per in-memory hit, want %d", got, storeGetHitAllocs)
	}
}

func BenchmarkStoreGetHit(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rec(`{"model":"icfp"}`, `{"spec":"mcf","n":20000}`, 1)
	if err := s.Put(r); err != nil {
		b.Fatal(err)
	}
	k := key(r)
	b.ReportAllocs()
	for b.Loop() {
		if _, ok, err := s.Get(k); err != nil || !ok {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}
