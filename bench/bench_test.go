package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own child process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

// TestSmokeFullSet runs every workload at smoke scale through the child
// re-exec path — one untraced repetition and the traced run each — and
// checks that nothing failed and every metric was reported.
func TestSmokeFullSet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process per workload")
	}
	t.Parallel()
	path := filepath.Join(t.TempDir(), "results.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-reps", "1", "-seconds", "0.2", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	res, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the results, want %d", len(res.Workloads), len(workloads))
	}
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed\n%s", wr.Name, wr.Failed, wr.Attempted, stderr.String())
		}
		for _, d := range e2eMetrics {
			if s := wr.Metrics[d.Name]; s.N != 1 || s.Median <= 0 {
				t.Errorf("%s: %s = %+v, want one positive value", wr.Name, d.Name, s)
			}
		}
		for _, d := range layerMetrics() {
			if _, ok := wr.Layers[d.Name]; !ok {
				t.Errorf("%s: no layer metric %s", wr.Name, d.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(outDir(".."), "trace-"+wr.Name+".json")); err != nil {
			t.Errorf("%s: no Chrome trace: %v", wr.Name, err)
		}
	}
	for _, name := range []string{"paper-all", "paper-sampled"} {
		for _, wr := range res.Workloads {
			if wr.Name == name && wr.Layers["trace.coverage"] < 0.5 {
				t.Errorf("%s: trace.coverage %.3f", name, wr.Layers["trace.coverage"])
			}
		}
	}
}

// TestSmokeOneRun checks the one-run interface: the last line of standard
// output is one JSON object with exactly the result keys and every
// metric of its kind.
func TestSmokeOneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	t.Parallel()
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "serve-mixed", "--seed", "7", "--seconds", "0.4", "--trace", trace, "-smoke"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if len(keys) != 4 {
			t.Errorf("trace %s: result keys %v, want correct, attempted, failed, metrics", trace, keys)
		}
		var res runResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: correct %v, %d of %d failed\n%s", trace, res.Correct, res.Failed, res.Attempted, stderr.String())
		}
		want := e2eMetrics
		if trace == "1" {
			want = layerMetrics()
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q: want a failure and no result", code, stdout.String())
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the benchmark reports in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bf.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := layerMetrics()
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(layers))
	}
	for i, m := range bf.PerLayer {
		d := layers[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestQuartiles checks quartiles against Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 5}, 0, 6},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 90},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, []float64{100, 99, 101, 100, 100}, false, verdictOK},
		{"within bound", steady, []float64{105, 106, 104, 105, 105}, false, verdictOK},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, false, verdictWorse},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, false, verdictBetter},
		{"throughput down", steady, []float64{80, 81, 79, 80, 80}, true, verdictWorse},
		{"throughput up", steady, []float64{120, 121, 119, 120, 120}, true, verdictBetter},
		{"noisy", steady, []float64{60, 140, 100, 80, 120}, false, verdictUnresolved},
		{"noisy but every value better", steady, []float64{50, 90, 70, 60, 80}, false, verdictBetter},
		{"empty", steady, nil, false, verdictUnresolved},
	} {
		if got := verdict(c.a, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareExitsOnWorse checks -compare end to end on two hand-made
// results files.
func TestCompareExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		wr := workloadResult{Name: "paper-all", Metrics: make(map[string]summary)}
		for _, d := range e2eMetrics {
			vals := []float64{100 * scale, 101 * scale, 99 * scale, 100 * scale, 100 * scale}
			wr.Metrics[d.Name] = summarize(d.Unit, vals)
		}
		data, err := json.Marshal(results{Workloads: []workloadResult{wr}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1), write("same.json", 1.001), write("slow.json", 2)
	var out, errs bytes.Buffer
	if code := run([]string{"-compare", a, same}, &out, &errs); code != 0 {
		t.Errorf("a vs same: exit %d\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, slow}, &out, &errs); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a vs slow: exit %d, want 1 with a worse verdict\n%s", code, out.String())
	}
}
