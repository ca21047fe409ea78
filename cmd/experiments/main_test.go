package main_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/spec"
	"icfp/internal/store"
)

// buildBinary compiles cmd/experiments once per test binary invocation.
var buildOnce struct {
	path string
	err  error
	done bool
}

func buildBinary(t *testing.T) string {
	t.Helper()
	if !buildOnce.done {
		buildOnce.done = true
		dir, err := os.MkdirTemp("", "experiments-test-*")
		if err != nil {
			buildOnce.err = err
		} else {
			bin := filepath.Join(dir, "experiments")
			out, err := exec.Command("go", "build", "-o", bin, "icfp/cmd/experiments").CombinedOutput()
			if err != nil {
				buildOnce.err = fmt.Errorf("go build: %v\n%s", err, out)
			} else {
				buildOnce.path = bin
			}
		}
	}
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildOnce.path != "" {
		os.RemoveAll(filepath.Dir(buildOnce.path))
	}
	os.Exit(code)
}

// tinyArgs matches the committed golden: the full registry at test-scale
// sample sizes.
var tinyArgs = []string{"-all", "-n", "2000", "-warm", "1000"}

// TestParallelGolden is the acceptance pin for the in-process harness:
// -all output is byte-identical to the committed golden at every pool
// size. (cmd/expd's tests pin the same bytes across a multi-process
// fleet.)
func TestParallelGolden(t *testing.T) {
	bin := buildBinary(t)
	want, err := os.ReadFile("testdata/golden_all_tiny.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 3} {
		args := append(append([]string{}, tinyArgs...), "-parallel", fmt.Sprint(parallel))
		if got := run(t, bin, args...); !bytes.Equal(got, want) {
			t.Errorf("-parallel %d output differs from the committed golden (simulator behaviour changed? regenerate testdata/golden_all_tiny.txt)", parallel)
		}
	}
}

// TestBenchScaleGolden pins -all at the sample sizes the benchmark's
// paper-all workload renders (bench/workloads.go), where iCFP reaches
// the long advance episodes and deep rally passes the tiny golden
// rarely does.
func TestBenchScaleGolden(t *testing.T) {
	bin := buildBinary(t)
	want, err := os.ReadFile("testdata/golden_all_bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, bin, "-all", "-n", "20000", "-warm", "7500"); !bytes.Equal(got, want) {
		t.Error("-all output at bench scale differs from the committed golden (simulator behaviour changed? regenerate testdata/golden_all_bench.txt)")
	}
}

// run runs the binary with args and returns its stdout, failing the
// test on a non-zero exit.
func run(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v: %v\nstderr: %s", args, err, stderr.String())
	}
	return out.Bytes()
}

// TestFlagValidation pins the usage-error paths: pool counts and flag
// combinations that used to hang or misbehave are rejected up front with
// exit 2.
func TestFlagValidation(t *testing.T) {
	bin := buildBinary(t)
	for _, args := range [][]string{
		{"-all", "-parallel", "0"},
		{"-all", "-parallel", "-3"},
		{"-all", "-server", "http://127.0.0.1:1", "-store", "d"}, // the daemon owns execution
		{"-all", "-n", "0"},
		{"-all", "-warm", "-1"},
		{},                                       // no experiments selected
		{"-spec", "whatever.json", "-fig5"},      // -spec excludes named experiments
		{"-spec", "whatever.json", "-n", "5000"}, // sample sizes come from the suite
		{"-describe", "fig6", "-fig5"},           // -describe emits one experiment
		{"-spec", "whatever.json", "-sample"},    // sampling policies live in the suite
	} {
		cmd := exec.Command(bin, args...)
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("args %v: err = %v, want exit code 2", args, err)
		}
	}
}

// TestSampledRunReportsCI pins the -sample flag family end to end: a
// sampled run succeeds, reports confidence intervals in its cells, and
// the same selection in full mode reports none.
func TestSampledRunReportsCI(t *testing.T) {
	bin := buildBinary(t)
	run := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-fig8", "-n", "20000", "-warm", "2000"}, extra...)
		cmd := exec.Command(bin, args...)
		var out, stderr bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr: %s", args, err, stderr.String())
		}
		return out.String()
	}
	sampled := run("-sample")
	if !strings.Contains(sampled, "±") {
		t.Errorf("sampled run reports no confidence intervals:\n%s", sampled)
	}
	if full := run(); strings.Contains(full, "±") {
		t.Errorf("full run invented confidence intervals:\n%s", full)
	}
}

// TestKillLeavesStoreConsistent is the crash test of -store: SIGKILL a
// multi-experiment run part-way through, and the store it leaves behind
// holds only complete records — each decodes or is absent, nothing is
// quarantined as damaged, and no temp file counts as a record. A rerun
// against that store simulates exactly the missing keys (its
// -run-summary has one span per key the killed run did not store) and
// renders byte-identically to an uninterrupted run. The killed run is
// pinned to -parallel 1 so its records land one by one; if it still
// finishes before the kill lands, the test skips.
func TestKillLeavesStoreConsistent(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	args := []string{"-all", "-n", "20000", "-warm", "5000"}
	cmd := exec.Command(bin, append(append([]string{}, args...), "-parallel", "1", "-store", storeDir)...)
	cmd.Stdout = &bytes.Buffer{}
	cmd.Stderr = &bytes.Buffer{}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for len(storeRecords(t, storeDir)) < 20 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := <-exited; err == nil {
		t.Skip("run finished before the kill landed; nothing to observe")
	}

	p := registry.Params{Cfg: spec.BaseConfig(), N: 20000}
	p.Cfg.WarmupInsts = 5000
	plan, err := registry.Plan(registry.DefaultNames(), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(storeRecords(t, storeDir)); st.Len() != n {
		t.Errorf("store indexes %d records, %d record files on disk", st.Len(), n)
	}
	stored := 0
	for _, sj := range plan {
		_, ok, err := st.Get(exp.KeyOf(sj))
		if err != nil {
			t.Fatalf("record of a killed run does not read back: %v", err)
		}
		if ok {
			stored++
		}
	}
	if damaged, _ := filepath.Glob(filepath.Join(storeDir, "??", "*.corrupt")); len(damaged) != 0 {
		t.Errorf("killed run left damaged records: %v", damaged)
	}
	if stored != st.Len() || stored == 0 || stored == len(plan) {
		t.Fatalf("%d of %d planned keys stored, %d records in the store; want a partial store of planned keys only", stored, len(plan), st.Len())
	}
	t.Logf("killed run stored %d of %d simulations", stored, len(plan))

	summary := filepath.Join(dir, "summary.json")
	resumed := run(t, bin, append(append([]string{}, args...), "-store", storeDir, "-run-summary", summary)...)
	if want := run(t, bin, args...); !bytes.Equal(resumed, want) {
		t.Error("rerun against the killed run's store differs from an uninterrupted run")
	}
	if n := spanCount(t, summary); n != len(plan)-stored {
		t.Errorf("rerun simulated %d keys, want the %d the killed run had not stored", n, len(plan)-stored)
	}
}

// storeRecords lists the record files of the result store at dir.
func storeRecords(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// spanCount returns how many simulations the -run-summary file at path
// records.
func spanCount(t *testing.T, path string) int {
	t.Helper()
	var summary struct {
		Spans []json.RawMessage `json:"spans"`
	}
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &summary)
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(summary.Spans)
}

// storedRun runs -fig8 against a fresh -store and returns its arguments,
// its output, and one of the records it stored, read back.
func storedRun(t *testing.T, bin string) (args []string, out []byte, record string, data []byte) {
	t.Helper()
	args = []string{"-fig8", "-n", "2000", "-warm", "1000", "-store", filepath.Join(t.TempDir(), "store")}
	out = run(t, bin, args...)
	files := storeRecords(t, args[len(args)-1])
	if len(files) < 2 {
		t.Fatalf("run stored %d records, want several", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return args, out, files[0], data
}

// TestDamagedStoreRecordRegenerates pins that a persisted result this
// build cannot decode costs a re-simulation, not the run: the damaged
// -store record is moved aside, its one key simulates again and is
// rewritten under the current record schema, and the output is
// byte-identical to the run that stored it.
func TestDamagedStoreRecordRegenerates(t *testing.T) {
	bin := buildBinary(t)
	args, want, path, data := storedRun(t, bin)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	summary := filepath.Join(t.TempDir(), "summary.json")
	if got := run(t, bin, append(args, "-run-summary", summary)...); !bytes.Equal(got, want) {
		t.Error("rerun over a damaged record differs from the run that stored it")
	}
	if n := spanCount(t, summary); n != 1 {
		t.Errorf("rerun simulated %d keys, want only the damaged one", n)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("damaged record was not moved aside: %v", err)
	}
	// The rewrite matches the original record but for its wall time.
	var before, after struct {
		Version int             `json:"version"`
		Result  json.RawMessage `json:"result"`
	}
	got, err := os.ReadFile(path)
	if err == nil {
		err = errors.Join(json.Unmarshal(data, &before), json.Unmarshal(got, &after))
	}
	if err != nil || after.Version != store.RecordVersion || !bytes.Equal(after.Result, before.Result) {
		t.Errorf("damaged record was not regenerated under record schema v%d (err %v):\n%s", store.RecordVersion, err, got)
	}
}

// TestFutureStoreRecordIsFatal pins the never-downgrade rule for persisted
// results: a -store record written under a newer record schema fails the
// run with exit 1 instead of being simulated over, and stays on disk
// unmodified.
func TestFutureStoreRecordIsFatal(t *testing.T) {
	bin := buildBinary(t)
	args, _, path, data := storedRun(t, bin)
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec["version"] = json.RawMessage(fmt.Sprint(store.RecordVersion + 1))
	future, err := json.Marshal(rec)
	if err == nil {
		err = os.WriteFile(path, future, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), "record schema") {
		t.Fatalf("future-schema record: err = %v, want exit 1 naming the schema\nstderr: %s", err, stderr.String())
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, future) {
		t.Errorf("future-schema record was modified (err %v):\n%s", err, got)
	}
}

// TestDescribeSpecRoundTripGolden is the acceptance pin for the spec
// redesign: for every experiment in the registry,
// `-describe <name> | -spec /dev/stdin` produces byte-identical output
// to running the experiment directly. The pairs share one -store, so
// each simulation happens once across the whole test.
func TestDescribeSpecRoundTripGolden(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")

	list, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if len(names) < 10 {
		t.Fatalf("-list returned only %v", names)
	}

	for _, name := range names {
		direct := new(bytes.Buffer)
		cmd := exec.Command(bin, "-"+name, "-n", "2000", "-warm", "1000", "-store", storeDir)
		cmd.Stdout = direct
		cmd.Stderr = &bytes.Buffer{}
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: direct run: %v", name, err)
		}

		suite, err := exec.Command(bin, "-describe", name, "-n", "2000", "-warm", "1000").Output()
		if err != nil {
			t.Fatalf("%s: -describe: %v", name, err)
		}
		suitePath := filepath.Join(dir, name+".json")
		if err := os.WriteFile(suitePath, suite, 0o644); err != nil {
			t.Fatal(err)
		}
		viaSpec := new(bytes.Buffer)
		cmd = exec.Command(bin, "-spec", suitePath, "-store", storeDir)
		cmd.Stdout = viaSpec
		cmd.Stderr = &bytes.Buffer{}
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: -spec run: %v", name, err)
		}
		if !bytes.Equal(direct.Bytes(), viaSpec.Bytes()) {
			t.Errorf("%s: -spec output differs from the direct run:\n--- direct ---\n%s\n--- via spec ---\n%s",
				name, direct.String(), viaSpec.String())
		}
	}
}

// TestCustomSuiteExample exercises the checked-in user-authored suite:
// it must run cleanly (cold and again from a -store, byte-identically)
// and render the sweep it declares.
func TestCustomSuiteExample(t *testing.T) {
	bin := buildBinary(t)
	suitePath, err := filepath.Abs("../../examples/customsuite/suite.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-spec", suitePath}, extra...)
		cmd := exec.Command(bin, args...)
		var out, stderr bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr: %s", args, err, stderr.String())
		}
		return out.String()
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	local := run("-store", storeDir)
	for _, marker := range []string{"icfp-trigger-l2-sweep", "iCFP-l2", "iCFP-all", "config"} {
		if !strings.Contains(local, marker) {
			t.Errorf("suite output missing %q:\n%s", marker, local)
		}
	}
	if stored := run("-store", storeDir); stored != local {
		t.Errorf("suite output from the store differs from the cold run:\n--- cold ---\n%s\n--- stored ---\n%s", local, stored)
	}
}

// TestSpecRejectsTypos pins the strict-decoding satellite end to end: a
// typo'd field fails the run with an actionable message instead of
// silently simulating the default machine.
func TestSpecRejectsTypos(t *testing.T) {
	bin := buildBinary(t)
	good, err := os.ReadFile("../../examples/customsuite/suite.json")
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(good, []byte(`"trigger"`), []byte(`"trigerr"`), 1)
	if bytes.Equal(good, bad) {
		t.Fatal("test fixture: no trigger field to misspell")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-spec", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("typo'd suite: err = %v, want exit 1", err)
	}
	if !strings.Contains(stderr.String(), "trigerr") {
		t.Errorf("error does not name the typo'd field:\n%s", stderr.String())
	}
}

// TestListStillWorks guards the registry listing against the CLI
// restructure.
func TestListStillWorks(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "fig5", "ablate"} {
		if !bytes.Contains(out, []byte(name)) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
}

// TestJSONExport pins that -json works and round-trips, and that a run
// answered entirely from a -store exports the same document.
func TestJSONExport(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	export := func() []byte {
		t.Helper()
		jsonPath := filepath.Join(dir, "out.json")
		run(t, bin, "-fig8", "-n", "2000", "-warm", "1000", "-store", filepath.Join(dir, "store"), "-json", jsonPath)
		raw, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	raw := export()
	var ex struct {
		N           int                        `json:"n"`
		Experiments map[string]json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.N != 2000 || len(ex.Experiments) != 1 {
		t.Errorf("export = n %d, %d experiments; want 2000 and 1", ex.N, len(ex.Experiments))
	}
	if again := export(); !bytes.Equal(raw, again) {
		t.Error("export of a run answered from the store differs from the cold run's")
	}
}
