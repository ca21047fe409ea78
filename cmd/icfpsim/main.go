// Command icfpsim runs one benchmark workload on one simulated
// micro-architecture and prints its statistics.
//
// Usage:
//
//	icfpsim [-model icfp] [-bench mcf] [-n 400000] [-warm 150000] [-l2lat 20]
//
// Models: inorder, runahead, multipass, sltp, icfp.
// Benchmarks: the 24 SPEC2000 profile names (ammp..wupwise, bzip2..vpr),
// or scenario:a..scenario:f for the Figure 1 micro-scenarios.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

var (
	flagModel = flag.String("model", "icfp", "inorder | runahead | multipass | sltp | icfp")
	flagBench = flag.String("bench", "mcf", "SPEC2000 profile name or scenario:a..scenario:f")
	flagN     = flag.Int("n", 400_000, "timed instructions")
	flagWarm  = flag.Int("warm", 150_000, "warmup instructions")
	flagL2    = flag.Int("l2lat", 20, "L2 hit latency in cycles")
	flagBase  = flag.Bool("baseline", false, "also run the in-order baseline and print speedup")
)

// models maps each -model value to its machine in sim.PaperMachines.
var models = map[string]int{"inorder": 0, "runahead": 1, "multipass": 2, "sltp": 3, "icfp": 4}

var scenarios = map[string]workload.Scenario{
	"scenario:a": workload.ScenarioLoneL2,
	"scenario:b": workload.ScenarioIndependentL2,
	"scenario:c": workload.ScenarioDependentL2,
	"scenario:d": workload.ScenarioChains,
	"scenario:e": workload.ScenarioD1IndependentL2,
	"scenario:f": workload.ScenarioD1DependentL2,
}

func main() {
	flag.Parse()
	i, ok := models[strings.ToLower(*flagModel)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *flagModel)
		os.Exit(2)
	}
	model := sim.PaperMachines()[i]

	ov := &spec.Overrides{Warmup: flagWarm, L2HitLat: flagL2}
	wl := spec.SPECWorkload(*flagBench, *flagWarm+*flagN)
	if sc, ok := scenarios[*flagBench]; ok {
		ov.Warmup = spec.Int(0) // scenarios pre-warm their caches explicitly
		wl = spec.ScenarioWorkload(sc)
	}
	model.Machine.Overrides = ov
	if err := (spec.Job{Name: *flagBench, Machine: model.Machine, Workload: wl}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	r := run(model.Machine, wl)
	fmt.Printf("%s on %s:\n", model.Label, r.Name)
	fmt.Printf("  cycles        %12d\n", r.Cycles)
	fmt.Printf("  instructions  %12d   (IPC %.3f)\n", r.Insts, r.IPC())
	fmt.Printf("  D$ miss/KI    %12.1f   L2 miss/KI %.1f\n", r.DCacheMissPerKI, r.L2MissPerKI)
	fmt.Printf("  D$ MLP        %12.2f   L2 MLP     %.2f\n", r.DCacheMLP, r.L2MLP)
	fmt.Printf("  mispredicts   %12d\n", r.BranchMispredicts)
	if r.Advances > 0 {
		fmt.Printf("  advances      %12d   advance insts %d\n", r.Advances, r.AdvanceInsts)
		fmt.Printf("  rally passes  %12d   rally/KI %.0f\n", r.RallyPasses, r.RallyPerKI)
		fmt.Printf("  squashes      %12d   slice/SB overflows %d/%d\n", r.Squashes, r.SliceOverflows, r.SBOverflows)
	}
	if r.SBForwards > 0 {
		fmt.Printf("  SB forwards   %12d   mean extra hops %.3f\n", r.SBForwards, r.SBExtraHops)
	}
	if *flagBase && model.Machine.Model != spec.ModelInOrder {
		base := run(spec.Machine{Model: spec.ModelInOrder, Overrides: ov}, wl)
		fmt.Printf("  speedup over in-order: %+.1f%%\n", r.SpeedupOver(base))
	}
}

// run simulates the validated workload on the validated machine.
func run(m spec.Machine, wl spec.Workload) pipeline.Result {
	r, err := m.New()
	if err != nil {
		panic(err) // validated in main
	}
	return r.Run(wl.New())
}
