// Command fuzzgate is the differential-correctness gate: it runs the
// committed adversarial corpus (workload.FuzzCorpus) through the
// cross-model oracle (internal/diffcheck), fails on any violated
// invariant, and pins every model's per-scenario stats byte-for-byte
// against a committed golden file — so a change that shifts any model
// on any corpus member is either a caught bug or a consciously
// refreshed golden.
//
//	go run ./cmd/fuzzgate                  # gate against the committed golden
//	go run ./cmd/fuzzgate -update          # rewrite the golden in place
//	go run ./cmd/fuzzgate -expand 50       # also check 50 fresh seeds (invariants only)
//	go run ./cmd/fuzzgate -perturb icfp    # oracle self-test: must fail
//
// The -expand mode is the nightly seed-expansion sweep: members of the
// fuzz family the corpus does not pin, derived deterministically from
// -expand-seed, checked against the invariants alone (no golden — the
// point is new territory every night via a date-derived seed). A
// violation prints the member's exact (seed, knobs) identity, which is
// everything needed to reproduce it or promote it into the corpus.
//
// -perturb corrupts the named model's stats before checking and
// inverts the exit status: the gate then *must* report a violation, or
// the oracle itself has lost its teeth. CI runs one perturbed pass so
// a refactor cannot silently disable the invariants.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"icfp/internal/diffcheck"
	"icfp/internal/exp"
	"icfp/internal/workload"
)

var (
	flagGolden  = flag.String("golden", "cmd/fuzzgate/golden_corpus.json", "committed golden stats file")
	flagUpdate  = flag.Bool("update", false, "rewrite the golden file from this run instead of gating")
	flagN       = flag.Int("n", 60_000, "total dynamic instructions per scenario, warmup included")
	flagWarm    = flag.Int("warm", 10_000, "per-sample machine warmup instructions")
	flagExpand  = flag.Int("expand", 0, "also oracle-check this many fresh fuzz members (invariants only)")
	flagSeed    = flag.Int64("expand-seed", 1, "base seed of the -expand sweep (nightly passes a date-derived value)")
	flagPerturb = flag.String("perturb", "", "corrupt this model's stats and require the oracle to catch it (self-test)")
	flagPar     = flag.Int("parallelism", 0, "exp worker-pool size (0 means GOMAXPROCS)")
)

// expandCases derives n fresh fuzz-family members from the base seed:
// seeds the corpus does not use, knobs drawn deterministically from the
// seed itself, so a nightly sweep is reproducible from its seed alone.
func expandCases(base int64, n int) []workload.FuzzCase {
	cases := make([]workload.FuzzCase, 0, n)
	for i := 0; i < n; i++ {
		seed := 10_000 + base*int64(n) + int64(i)
		knob := func(key int64) int {
			x := (seed*6364136223846793005 + key*1442695040888963407) >> 33
			if x < 0 {
				x = -x
			}
			return int(x % 101)
		}
		cases = append(cases, workload.FuzzCase{
			Label: fmt.Sprintf("expand-%d", i),
			Seed:  seed,
			Knobs: workload.FuzzKnobs{
				SBPressure:   knob(1),
				BranchOnLoad: knob(2),
				MissCluster:  knob(3),
				RallyStarve:  knob(4),
			},
		})
	}
	return cases
}

// summarize prints one line per scenario and every violation, returning
// the number of scenarios with violations.
func summarize(reports []diffcheck.Report) int {
	failed := 0
	for _, r := range reports {
		status := "ok"
		if !r.OK() {
			status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
			failed++
		}
		fmt.Printf("fuzzgate: %-28s %s\n", r.Scenario, status)
		for _, v := range r.Violations {
			fmt.Printf("fuzzgate:   violation: %s\n", v)
		}
	}
	return failed
}

func run() error {
	flag.Parse()

	opts := diffcheck.Options{
		N: *flagN, Warm: *flagWarm,
		Perturb:     *flagPerturb,
		Parallelism: *flagPar,
		Cache:       exp.NewCache(),
	}

	corpus := workload.FuzzCorpus()
	reports, err := diffcheck.CheckAll(corpus, opts)
	if err != nil {
		return err
	}
	failed := summarize(reports)

	if *flagExpand > 0 {
		fmt.Printf("fuzzgate: expanding: %d fresh members from base seed %d\n", *flagExpand, *flagSeed)
		expanded, err := diffcheck.CheckAll(expandCases(*flagSeed, *flagExpand), opts)
		if err != nil {
			return err
		}
		failed += summarize(expanded)
	}

	if *flagPerturb != "" {
		// Self-test: the corrupted model must trip at least one
		// invariant; a clean pass means the oracle is broken.
		if failed == 0 {
			return fmt.Errorf("perturbed model %q passed every invariant: the oracle is not catching corruption", *flagPerturb)
		}
		fmt.Printf("fuzzgate: ok (perturbed %q caught by the invariants on %d scenarios)\n", *flagPerturb, failed)
		return nil
	}
	if failed > 0 {
		return fmt.Errorf("%d scenarios violated cross-model invariants", failed)
	}

	golden, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	golden = append(golden, '\n')
	if *flagUpdate {
		if err := os.WriteFile(*flagGolden, golden, 0o644); err != nil {
			return err
		}
		fmt.Println("fuzzgate: golden", *flagGolden, "updated")
		return nil
	}
	committed, err := os.ReadFile(*flagGolden)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("golden %s missing; run with -update to create it", *flagGolden)
		}
		return err
	}
	if string(committed) != string(golden) {
		diffGolden(committed, golden)
		return fmt.Errorf("per-model stats diverge from golden %s; if the change is intentional, refresh it with -update", *flagGolden)
	}
	fmt.Printf("fuzzgate: ok (%d scenarios, all invariants held, stats match golden)\n", len(reports))
	return nil
}

// diffGolden prints which scenario/model entries moved, so a CI failure
// names the divergence instead of dumping two JSON blobs.
func diffGolden(committed, current []byte) {
	var want, got []diffcheck.Report
	if json.Unmarshal(committed, &want) != nil || json.Unmarshal(current, &got) != nil {
		fmt.Println("fuzzgate: golden layout changed; full re-generation needed")
		return
	}
	wantBy := make(map[string]diffcheck.Stat)
	for _, r := range want {
		for _, s := range r.Stats {
			wantBy[r.Scenario+"/"+s.Model] = s
		}
	}
	gotBy := make(map[string]diffcheck.Stat)
	for _, r := range got {
		for _, s := range r.Stats {
			k := r.Scenario + "/" + s.Model
			gotBy[k] = s
			if w, ok := wantBy[k]; !ok {
				fmt.Printf("fuzzgate: diff %-40s not in golden\n", k)
			} else if w != s {
				fmt.Printf("fuzzgate: diff %-40s cycles %d -> %d, insts %d -> %d\n",
					k, w.Cycles, s.Cycles, w.Insts, s.Insts)
			}
		}
	}
	for k := range wantBy {
		if _, ok := gotBy[k]; !ok {
			fmt.Printf("fuzzgate: diff %-40s missing from run\n", k)
		}
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzgate:", err)
		os.Exit(1)
	}
}
