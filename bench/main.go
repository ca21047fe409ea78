// Command bench is the repository's benchmark: the paper's evaluation
// (experiments -all and the sampled Figure 5), the expq daemon's read and
// write paths, and a dist fleet, each timed end to end from untraced runs
// and per layer from a traced run.
//
// Every repetition runs in its own re-executed child process, so peak RSS
// and set-up time are the repetition's own. Run from the bench directory:
//
//	go run .                                   # the full interleaved set
//	go run . -workload serve-hits -seconds 18  # one run, one JSON line
//	go run . -workload paper-all -trace 1      # one traced run
//	go run . -compare baseline.json out/results-<time>.json
//
// or from the repository root through run.sh, which builds into
// .bench_build/ first. See README.md for the workload and metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if raw, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(raw))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parent's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	smoke    bool
	out      string
	root     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload and print its result as one JSON line; one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workloads' inputs")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run: of the one run with -workload (default 18), of each run of a full set (default 4)")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 1 makes the run the traced run and reports the per-layer metrics")
	fs.IntVar(&o.reps, "reps", 5, "full set: interleaved repetitions of every workload")
	fs.BoolVar(&o.smoke, "smoke", false, "smoke-scale inputs, for tests")
	fs.StringVar(&o.out, "out", "", "full set: results file (default out/results-<time>.json)")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	o.root = root
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two results files"))
		}
		worse, err := compareFiles(stdout, root, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if o.trace != 0 && o.trace != 1 {
		return fail(errors.New("-trace is 0 or 1"))
	}
	if o.workload == "" {
		if o.seconds == 0 {
			o.seconds = 4
		}
		if err := fullSet(o, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	if _, ok := lookupWorkload(o.workload); !ok {
		return fail(fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	if o.seconds == 0 {
		o.seconds = 18
	}
	line, err := json.Marshal(oneRun(o, stderr))
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// findRoot returns the repository root: the working directory or its
// parent, whichever holds the -all golden the benchmark checks against.
func findRoot() (string, error) {
	cands := []string{".", ".."}
	for _, d := range cands {
		if _, err := os.Stat(filepath.Join(d, goldenPath)); err == nil {
			return filepath.Abs(d)
		}
	}
	return "", fmt.Errorf("no %s under %s: run from the repository root or its bench directory", goldenPath, strings.Join(cands, " or "))
}

// outDir is where runs leave traces, results and scratch stores.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// metricValue is one metric of a run's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON line a -workload run prints last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChildren is how many child processes an untraced run is split over,
// each set up afresh, so set-up time is a median of several and a child's
// luck in memory placement averages out. Smoke runs, which check paths
// rather than measure, use one.
const runChildren = 6

func (o options) children() int {
	if o.smoke {
		return 1
	}
	return runChildren
}

// runWorkload makes one run of workload w with the given budget:
// untraced, o.children() children split it, each set up afresh; traced, one
// untraced child and then one traced child split it. Serve workloads' children
// start from the store fixture.
func runWorkload(o options, w workloadDef, budget time.Duration, traced bool, fixture string) []*childRun {
	deadline := time.Now().Add(runLimit)
	cfg := func(rep int, budget time.Duration, traced bool) childConfig {
		c := childConfig{Workload: w.name, Seed: o.seed, Rep: rep, Budget: budget, Traced: traced}
		if w.storeFixture {
			c.Fixture = fixture
		}
		return c
	}
	if traced {
		return []*childRun{
			runChild(o, cfg(0, budget/2, false), deadline),
			runChild(o, cfg(1, budget/2, true), deadline),
		}
	}
	var runs []*childRun
	n := o.children()
	for rep := range n {
		runs = append(runs, runChild(o, cfg(rep, budget/time.Duration(n), false), deadline))
	}
	return runs
}

// oneRun runs one workload for o.seconds of measurement (runWorkload).
// Untraced, the end-to-end metrics pool the children's operations, and
// set-up time and peak RSS are medians over them; traced, the per-layer
// metrics come from the traced child.
func oneRun(o options, log io.Writer) runResult {
	def, _ := lookupWorkload(o.workload)
	fixture, failed := storeFixture(o, def)
	if fixture != "" {
		defer os.RemoveAll(fixture)
	}
	runs := runWorkload(o, def, time.Duration(o.seconds*float64(time.Second)), o.trace == 1, fixture)
	checkDigests(runs)
	metrics, defs := e2eValues(runs), e2eMetrics
	if o.trace == 1 {
		metrics, defs = tracedValues(runs[1], runs[:1]), layerMetrics()
	}
	if failed != nil {
		runs = append(runs, failed)
	}
	res := runResult{Metrics: make(map[string]metricValue)}
	for _, r := range runs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: metrics[d.Name], Unit: d.Unit}
	}
	logRun(log, hostFacts(o.root), o.workload, runs)
	return res
}

// logRun writes a run's host facts, per-child summary and failures to w.
func logRun(w io.Writer, h host, workload string, runs []*childRun) {
	fmt.Fprintf(w, "bench: %s on %s (nproc %d, GOMAXPROCS %d per child, %s, commit %s)\n",
		workload, h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	for _, r := range runs {
		kind := "untraced"
		if r.Traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "  child %d %-8s setup %.3fs window %.3fs (host %.3fs, probe %.1fms) ops %d failed %d rss %.0fMB load %.2f→%.2f%s\n",
			r.Rep, kind, r.SetupS, r.WindowS, r.HostWinS, r.ProbeMS, r.Attempted, r.Failed, r.PeakRSSMB, r.LoadBefore, r.LoadAfter, signalNote(r))
		for _, e := range r.Errors {
			fmt.Fprintln(w, "    failed:", e)
		}
	}
}

func signalNote(r *childRun) string {
	if r.Signal == "" {
		return ""
	}
	return " (" + r.Signal + ")"
}
