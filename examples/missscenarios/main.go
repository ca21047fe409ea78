// Miss scenarios: run the six abstract miss patterns of the paper's
// Figure 1 on all five machines — as one parallel harness run — and print
// the cycle counts. The table makes the paper's qualitative argument
// concrete:
//
//   - (a) lone L2 miss: SLTP/iCFP win by committing the miss-independent
//     tail; Runahead gains nothing (it re-executes everything).
//   - (b) independent L2 misses: every advance design overlaps them.
//   - (c) dependent L2 misses: nobody can overlap them; commit still helps.
//   - (d) independent chains of dependent misses: Runahead and iCFP
//     overlap chain with chain; SLTP's blocking rally serializes.
//   - (e,f) data-cache miss under an L2 miss: iCFP confidently poisons the
//     secondary miss in both cases; Runahead must choose a policy.
package main

import (
	"fmt"
	"os"

	"icfp/internal/exp"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

func main() {
	var jobs []exp.Job
	for _, sc := range workload.AllScenarios {
		for _, m := range sim.PaperMachines() {
			mach := m.Machine
			mach.Overrides = &spec.Overrides{Warmup: spec.Int(0)} // scenarios pre-warm their caches explicitly
			jobs = append(jobs, exp.Job{Name: string(sc) + "/" + m.Label, Machine: mach, Workload: spec.ScenarioWorkload(sc)})
		}
	}
	rs, err := exp.Run(jobs) // default parallelism: one worker per CPU
	if err != nil {
		fmt.Fprintln(os.Stderr, "missscenarios:", err)
		os.Exit(1)
	}

	fmt.Printf("%-22s", "scenario")
	for _, m := range sim.PaperMachines() {
		fmt.Printf(" %10s", m.Label)
	}
	fmt.Println(" (cycles)")
	for _, sc := range workload.AllScenarios {
		fmt.Printf("%-22s", sc)
		for _, m := range sim.PaperMachines() {
			fmt.Printf(" %10d", rs.MustGet(string(sc)+"/"+m.Label).Cycles)
		}
		fmt.Println()
	}
}
