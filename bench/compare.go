package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of the repository's BENCHMARK.json that
// -compare reads: the end-to-end metrics' bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints a verdict for every (workload, end-to-end metric)
// pair of two full sets, judged against the bounds in BENCHMARK.json, and
// reports whether any is worse. A workload whose operations failed in b
// but not in a is worse too.
func compareFiles(w io.Writer, root, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	after := make(map[string]workloadResult, len(b.Workloads))
	for _, wr := range b.Workloads {
		after[wr.Name] = wr
	}
	fmt.Fprintf(w, "a: %s (commit %s)\nb: %s (commit %s)\n", pathA, a.Host.Commit, pathB, b.Host.Commit)
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	worse := false
	for _, wa := range a.Workloads {
		wb, ok := after[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from b\n", wa.Name)
			continue
		}
		if wb.Failed > 0 && wa.Failed == 0 {
			worse = true
			fmt.Fprintf(w, "%-13s %-14s %12.4g %12.4g %8s %6s  %s\n", wa.Name, "failed_frac", wa.FailedFrac, wb.FailedFrac, "", "0", verdictWorse)
		}
		for _, m := range bf.EndToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			v := verdict(sa.Values, sb.Values, m.Bound, m.Better == "higher")
			worse = worse || v == verdictWorse
			change := ""
			if sa.Median != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(sb.Median-sa.Median)/sa.Median)
			}
			fmt.Fprintf(w, "%-13s %-14s %12.4g %12.4g %8s %6.2f  %s\n", wa.Name, m.Name, sa.Median, sb.Median, change, m.Bound, v)
		}
	}
	return worse, nil
}
