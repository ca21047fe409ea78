// Quickstart: build the Table 1 machine, run one workload on the in-order
// baseline and on iCFP, and print the speedup. This is the minimal use of
// the library's public surface: spec.Machine.New, workload.SPEC,
// Runner.Run.
package main

import (
	"fmt"

	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

func main() {
	// A deterministic mcf-profile workload: pointer chasing over a
	// working set larger than the L2, the worst case for an in-order
	// pipeline.
	const timed = 300_000
	run := func(model string) pipeline.Result {
		m, err := spec.Machine{Model: model}.New() // the paper's Table 1 machine
		if err != nil {
			panic(err)
		}
		return m.Run(workload.SPEC("mcf", spec.BaseConfig().WarmupInsts+timed))
	}

	base := run(spec.ModelInOrder)
	icfp := run(spec.ModelICFP)

	fmt.Printf("workload: %s (%d timed instructions)\n", base.Name, base.Insts)
	fmt.Printf("in-order: %8d cycles  IPC %.3f\n", base.Cycles, base.IPC())
	fmt.Printf("iCFP:     %8d cycles  IPC %.3f\n", icfp.Cycles, icfp.IPC())
	fmt.Printf("speedup:  %+.1f%%\n", icfp.SpeedupOver(base))
	fmt.Printf("iCFP rallied %.0f instructions per 1000 committed across %d passes\n",
		icfp.RallyPerKI, icfp.RallyPasses)
}
