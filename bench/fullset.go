package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// results is a full set's results file: the input of -compare.
type results struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Reps      int              `json:"reps"`
	Seconds   float64          `json:"seconds"` // measured seconds per run
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is one workload's share of a full set.
type workloadResult struct {
	Name       string             `json:"name"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Metrics    map[string]summary `json:"metrics"` // end to end: one value per untraced run
	Tail       tail               `json:"tail"`    // the highest honest percentile of the pooled latencies
	Layers     map[string]float64 `json:"layers"`  // per layer, from the traced run
	Runs       []*childRun        `json:"runs"`    // every child, the traced run's last
}

// summary is one end-to-end metric over the repetitions of a full set.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // per run, in round order
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

// tail is an operation-latency percentile chosen by tailPercentile.
type tail struct {
	Percentile float64 `json:"percentile"` // 0 when too few operations for any
	MS         float64 `json:"ms"`
	N          int     `json:"n"`
}

func summarize(unit string, vals []float64) summary {
	q1, q3 := quartiles(vals)
	return summary{Unit: unit, Values: vals, Median: finite(median(vals)), Q1: finite(q1), Q3: finite(q3), N: len(vals)}
}

// fullSet runs o.reps interleaved rounds — one untraced run of every
// workload per round, so a slow spell on a shared machine spreads across
// workloads — then one traced run per workload, writes the results file
// and prints the tables.
func fullSet(o options, stdout, log io.Writer) error {
	budget := time.Duration(o.seconds * float64(time.Second))
	res := results{Host: hostFacts(o.root), Seed: o.seed, Reps: o.reps, Seconds: o.seconds, Smoke: o.smoke}
	fixture, failed := storeFixture(o, workloads...)
	if fixture != "" {
		defer os.RemoveAll(fixture)
	}
	plain := make(map[string][][]*childRun) // per workload, per repetition
	for rep := range o.reps {
		for _, w := range workloads {
			runs := runWorkload(o, w, budget, false, fixture)
			v := e2eValues(runs)
			fmt.Fprintf(log, "bench: round %d/%d %-13s op_p50 %.4g ms, setup %.3g s\n", rep+1, o.reps, w.name, v["op_p50_ms"], v["setup_s"])
			plain[w.name] = append(plain[w.name], runs)
		}
	}
	for _, w := range workloads {
		traced := runWorkload(o, w, budget, true, fixture)
		wr := workloadResult{Name: w.name, Metrics: make(map[string]summary), Layers: tracedValues(traced[1], traced[:1])}
		per := make(map[string][]float64)
		var lat []float64
		for _, runs := range plain[w.name] {
			for k, v := range e2eValues(runs) {
				per[k] = append(per[k], v)
			}
			for _, r := range runs {
				lat = append(lat, r.lat...)
			}
			wr.Runs = append(wr.Runs, runs...)
		}
		wr.Runs = append(wr.Runs, traced...)
		checkDigests(wr.Runs)
		if failed != nil && w.storeFixture {
			wr.Runs = append(wr.Runs, failed)
		}
		for _, r := range wr.Runs {
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			for _, e := range r.Errors {
				fmt.Fprintf(log, "bench: %s child %d failed: %s\n", w.name, r.Rep, e)
			}
		}
		wr.FailedFrac = ratio(float64(wr.Failed), float64(wr.Attempted))
		for _, d := range e2eMetrics {
			wr.Metrics[d.Name] = summarize(d.Unit, per[d.Name])
		}
		p := tailPercentile(len(lat))
		wr.Tail = tail{Percentile: p, MS: finite(quantile(lat, p/100)), N: len(lat)}
		res.Workloads = append(res.Workloads, wr)
	}

	path := o.out
	if path == "" {
		path = filepath.Join(outDir(o.root), "results-"+time.Now().Format("20060102-150405")+".json")
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printResults(stdout, res)
	fmt.Fprintln(stdout, "results:", path)
	return nil
}

// printResults writes the end-to-end table (median [q1, q3] over the
// repetitions) and the per-layer table (one column per workload).
func printResults(w io.Writer, res results) {
	h := res.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d per child, %s, commit %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	fmt.Fprintf(w, "seed %d, %d interleaved repetitions of %gs each, then one traced run per workload\n\n", res.Seed, res.Reps, res.Seconds)
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "%s  (failed_frac %.4g of %d operations; tail p%g = %.4g ms over %d)\n",
			wr.Name, wr.FailedFrac, wr.Attempted, wr.Tail.Percentile, wr.Tail.MS, wr.Tail.N)
		for _, d := range e2eMetrics {
			s := wr.Metrics[d.Name]
			fmt.Fprintf(w, "  %-14s %12.4g  [%.4g, %.4g]  n=%d  %s\n", d.Name, s.Median, s.Q1, s.Q3, s.N, d.Unit)
		}
	}
	fmt.Fprintf(w, "\n%-26s", "layer metric (traced run)")
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, " %13s", wr.Name)
	}
	fmt.Fprintf(w, "  unit\n")
	for _, d := range layerMetrics() {
		fmt.Fprintf(w, "%-26s", d.Name)
		for _, wr := range res.Workloads {
			fmt.Fprintf(w, " %13.4g", wr.Layers[d.Name])
		}
		fmt.Fprintf(w, "  %s\n", d.Unit)
	}
}
