// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5) as text tables, driven by the experiment
// registry (internal/exp/registry):
//
//	-table1   machine configuration
//	-fig5     speedups over in-order: Runahead, Multipass, SLTP, iCFP
//	-table2   diagnostics: miss rates, D$/L2 MLP, iCFP rally rate
//	-fig6     L2 hit-latency sensitivity (equake + SPEC geomean)
//	-fig7     iCFP feature build from SLTP
//	-fig8     store-buffer design comparison
//	-hops     §3.2 chained store buffer hop statistics and chain-table size
//	-poison   §3.4 poison vector width study (1 vs 8 bits)
//	-area     §5.3 area overheads
//	-ooo      §5.3 out-of-order comparison
//	-ablate   structure-size ablations (DESIGN.md)
//	-all      everything above
//	-fig5s    Figure 5 at 25x workload length via interval sampling,
//	          every cell ± its 95% CI (runs only when named, not via -all)
//	-list     list the registry and exit
//
// -sample runs every selected experiment's SPEC workloads under
// SMARTS-style interval sampling: detailed simulation is confined to
// stratified measurement windows (plus a detailed ramp ahead of each)
// with fast functional warming in between, cutting wall clock by >= 10x
// on paper-scale runs at <= 1% CPI error. Sampled results carry 95%
// confidence intervals, rendered as "value ± ci" wherever tables show
// per-run rates. The policy is registry.DefaultSampling (one window per
// twelfth of the run, 2% of each stratum measured, a ramp of three
// windows). A custom policy is a suite edit: -describe <name> -sample,
// change the "sampling" object of its workloads, and run the file with
// -spec. Full-mode output is byte-identical to a build without the
// sampling harness.
//
// Experiments are declarative (internal/spec): every entry above is a
// serializable spec.Suite of (machine, workload) jobs.
//
//	-describe <name>   emit the named experiment as suite JSON and exit
//	-spec <file>       run a suite from JSON ("-" reads stdin)
//
// A described suite run back through -spec renders byte-identically to
// running the experiment directly, and user-authored suites (see
// examples/customsuite and the README's "Defining your own experiments")
// can name any machine, workload, and sweep the simulator supports —
// no Go required. Decoding is strict: unknown fields and out-of-range
// values fail with actionable errors.
//
// Simulations run on a worker pool (-parallel N) with memoized sharing of
// common work, so the in-order baselines behind every speedup figure run
// once for the whole invocation, and every distinct workload is generated
// once and shared read-only across all machines; the output is
// byte-identical at every parallelism setting. -json FILE additionally
// exports every result set as machine-readable JSON. To spread a run
// over several processes or hosts, submit it with -server to an expq
// daemon started with -accept-workers, whose fleet is any number of
// `expd join` workers: the output is the same bytes.
//
// -server URL submits the selected experiments (or the -spec suite) to
// a running expq simulation daemon instead of simulating locally: the
// daemon answers from its persistent result store, simulates only
// genuinely new work, and streams back the rendered report —
// byte-identical to the local run at any fleet shape.
// -server-token/-server-tls-ca/-server-tls-name authenticate the
// connection; execution flags (-store, -json, -run-summary, profiling)
// conflict with -server, since the daemon owns execution. See
// docs/OPERATIONS.md, "Running expq".
//
// -store DIR keeps results in a persistent result store (internal/store,
// the same one expq uses): every planned simulation the store
// already holds is answered from it, and every new result is written to
// it atomically the moment it completes — so re-running (or running a
// different selection that shares work) skips simulations already on
// disk, and an interrupted or killed run loses nothing it finished.
// Records are keyed by canonical machine/workload specs. Results are
// deterministic, so a store built by an older simulator version must be
// deleted after any behavioural change — the golden tests pin when that
// happens.
//
// -cpuprofile/-memprofile write pprof profiles of the run, the
// performance workflow described in README.md ("Performance").
//
// Runs are deterministic; -n and -warm control sample sizes (the paper
// samples 1M-instruction windows after 4M-instruction warmups; the
// defaults here are scaled down to keep the full suite to a few minutes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"icfp/cmd/internal/cliutil"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/serve"
	"icfp/internal/spec"
)

var (
	flagAll         = flag.Bool("all", false, "run every experiment")
	flagList        = flag.Bool("list", false, "list the experiment registry and exit")
	flagDescribe    = flag.String("describe", "", "emit the named experiment as spec.Suite JSON and exit")
	flagSpec        = flag.String("spec", "", "run a suite from this JSON file instead of named experiments ('-' reads stdin)")
	flagN           = flag.Int("n", 400_000, "timed instructions per sample")
	flagWarm        = flag.Int("warm", 150_000, "warmup instructions per sample")
	flagParallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size (results are identical at any setting)")
	flagJSON        = flag.String("json", "", "also write every result set to this file as JSON")
	flagStore       = flag.String("store", "", "persistent result store directory: stored results are reused, new ones written as they complete")
	flagServer      = flag.String("server", "", "submit the selected experiments to a running expq daemon at this base URL instead of simulating locally")
	flagServerToken = flag.String("server-token", "", "bearer token for -server (the daemon's -token)")
	flagServerCA    = flag.String("server-tls-ca", "", "CA certificate file to verify an https -server against")
	flagServerName  = flag.String("server-tls-name", "", "expected TLS server name for -server when it differs from the URL host")
	flagCPUProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	flagMemProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	flagRunSummary  = flag.String("run-summary", "", "write the run's span timeline (per-simulation start/end/worker/elapsed) to this JSON file")

	flagSample = flag.Bool("sample", false, "run SPEC workloads under interval sampling; results carry 95% confidence intervals")
)

// export is the -json file layout: the sample-size parameters and one
// result set per experiment (or suite) run.
type export struct {
	N           int                       `json:"n"`
	Warmup      int                       `json:"warmup"`
	Experiments map[string]*exp.ResultSet `json:"experiments"`
}

// usageError prints the message and the flag usage, then exits 2 — the
// conventional bad-invocation exit code.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "experiments:", msg)
	flag.Usage()
	os.Exit(2)
}

func main() {
	all := registry.All()
	sel := make(map[string]*bool, len(all))
	for _, e := range all {
		sel[e.Name] = flag.Bool(e.Name, false, e.Desc)
	}
	flag.Parse()

	if *flagList {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return
	}

	switch {
	case *flagParallel <= 0:
		usageError(fmt.Sprintf("-parallel %d: need at least one pool worker", *flagParallel))
	case *flagN <= 0:
		usageError(fmt.Sprintf("-n %d: need at least one timed instruction", *flagN))
	case *flagWarm < 0:
		usageError(fmt.Sprintf("-warm %d: need a non-negative warmup", *flagWarm))
	case *flagDescribe != "" && *flagSpec != "":
		usageError("-describe and -spec are mutually exclusive")
	}
	var names []string
	for _, e := range all {
		// Extra experiments (the sampled long-workload variants) run only
		// when named, keeping -all exactly the paper's evaluation.
		if (*flagAll && !e.Extra) || *sel[e.Name] {
			names = append(names, e.Name)
		}
	}

	p := registry.Params{Cfg: spec.BaseConfig(), N: *flagN}
	p.Cfg.WarmupInsts = *flagWarm
	if *flagSample {
		p.Sampling = registry.DefaultSampling(*flagWarm + *flagN)
	}

	if *flagDescribe != "" {
		if len(names) > 0 {
			usageError("-describe emits one experiment; drop the named experiment flags")
		}
		s, err := registry.Describe(*flagDescribe, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		b, err := s.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}

	var suite spec.Suite
	if *flagSpec != "" {
		if len(names) > 0 {
			usageError("-spec runs a suite file; drop the named experiment flags")
		}
		// Sample sizes live in the suite; an explicit -n/-warm here
		// would be silently ignored, so reject the combination.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" || f.Name == "warm" {
				usageError("-" + f.Name + " conflicts with -spec: sample sizes come from the suite file")
			}
			if f.Name == "sample" {
				usageError("-" + f.Name + " conflicts with -spec: sampling policies live on the suite file's workloads")
			}
		})
		var err error
		suite, err = loadSuite(*flagSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	} else if len(names) == 0 {
		usageError("no experiments selected")
	}

	if *flagServer != "" {
		// Remote mode: the daemon owns execution, caching, parallelism,
		// and profiling — flags that configure local execution would be
		// silently ignored, so reject them instead.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "store", "json", "run-summary", "cpuprofile", "memprofile", "parallel":
				usageError("-" + f.Name + " conflicts with -server: execution happens on the daemon")
			}
		})
		if err := runRemote(names, p, suite, *flagSpec != ""); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	// With -store, stored results preload the cache and every new
	// result is written the moment it completes, so no exit path —
	// error, interrupt, or kill — needs a checkpoint of its own.
	cache := exp.NewCache()
	var persist func(exp.Key)
	if *flagStore != "" {
		plan := suite.Jobs
		var err error
		if *flagSpec == "" {
			plan, err = registry.Plan(names, p)
		}
		if err == nil {
			persist, err = cliutil.UseStore(*flagStore, cache, plan, obs.NewLogger(os.Stderr))
		}
		if err != nil {
			fail(err)
		}
	}

	if *flagCPUProfile != "" {
		f, err := os.Create(*flagCPUProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// The span log records one entry per simulation when -run-summary
	// asks for the timeline; nil otherwise, and every Add on nil is a
	// no-op.
	var spans *obs.SpanLog
	if *flagRunSummary != "" {
		spans = obs.NewSpanLog()
	}

	opts := []exp.Option{exp.Parallelism(*flagParallel), exp.WithCache(cache), exp.WithSpans(spans), exp.OnRun(persist)}
	sets := make(map[string]*exp.ResultSet)
	exportN, exportWarm := *flagN, *flagWarm
	var err error
	if *flagSpec != "" {
		var rs *exp.ResultSet
		rs, err = registry.ReportSuite(os.Stdout, suite, opts...)
		sets[suite.Name] = rs
		exportN, exportWarm = suite.N, suite.Warm
	} else {
		sets, err = registry.Report(os.Stdout, names, p, opts...)
	}
	if err != nil {
		fail(err)
	}

	if *flagRunSummary != "" {
		f, err := os.Create(*flagRunSummary)
		if err != nil {
			fail(err)
		}
		err = spans.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
	}

	if *flagMemProfile != "" {
		f, err := os.Create(*flagMemProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
	}

	if *flagJSON != "" {
		f, err := os.Create(*flagJSON)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(export{N: exportN, Warmup: exportWarm, Experiments: sets})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
	}
}

// runRemote submits the selected work to an expq daemon and writes the
// rendered reports to stdout. Each experiment is described as the same
// suite document -describe emits and submitted in selection order, so
// the concatenated output is byte-identical to running the selection
// locally (the describe/spec round trip CI pins, transitively).
func runRemote(names []string, p registry.Params, suite spec.Suite, haveSuite bool) error {
	c, err := serve.NewClient(*flagServer, *flagServerToken, *flagServerCA, *flagServerName)
	if err != nil {
		return err
	}
	submit := func(s spec.Suite) error {
		b, err := s.Marshal()
		if err != nil {
			return err
		}
		out, err := c.Submit(b, nil)
		if err != nil {
			return fmt.Errorf("suite %q: %w", s.Name, err)
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if haveSuite {
		return submit(suite)
	}
	for _, name := range names {
		s, err := registry.Describe(name, p)
		if err != nil {
			return err
		}
		if err := submit(s); err != nil {
			return err
		}
	}
	return nil
}

// loadSuite reads and strictly decodes a suite file ("-" means stdin).
func loadSuite(path string) (spec.Suite, error) {
	var (
		data []byte
		err  error
	)
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return spec.Suite{}, err
	}
	s, err := spec.UnmarshalSuite(data) // owns data: the suite's strings alias it
	if err != nil {
		return spec.Suite{}, fmt.Errorf("suite %s: %w", path, err)
	}
	return s, nil
}
