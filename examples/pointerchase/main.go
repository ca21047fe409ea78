// Pointer chase deep dive: run the mcf profile — dependent miss chains
// over near- and far-resident linked lists — across all five machines and
// print the diagnostics the paper uses to explain them: MLP at both cache
// levels and re-execution (rally) overhead. The ordering the paper argues
// for is visible directly: designs that re-execute everything (Runahead,
// Multipass) pay thousands of re-processed instructions per kilo-
// instruction; iCFP rallies only miss slices, and SLTP's blocking rally
// caps its gain.
package main

import (
	"fmt"

	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

func main() {
	const timed = 300_000
	n := spec.BaseConfig().WarmupInsts + timed

	var base int64
	fmt.Printf("%-10s %8s %8s %7s %7s %8s %9s %8s\n",
		"machine", "cycles", "IPC", "dMLP", "l2MLP", "rally/KI", "advances", "speedup")
	for i, m := range sim.PaperMachines() {
		mach, err := m.Machine.New()
		if err != nil {
			panic(err)
		}
		r := mach.Run(workload.SPEC("mcf", n))
		if i == 0 { // the in-order baseline
			base = r.Cycles
		}
		sp := (float64(base)/float64(r.Cycles) - 1) * 100
		fmt.Printf("%-10s %8d %8.3f %7.2f %7.2f %8.0f %9d %+7.1f%%\n",
			m.Label, r.Cycles, r.IPC(), r.DCacheMLP, r.L2MLP, r.RallyPerKI, r.Advances, sp)
	}
	fmt.Println("\nmcf walks a 4 MB list (every hop misses to memory) and a 256 KB list")
	fmt.Println("(every hop misses the D$ but hits the L2); each node's payload feeds")
	fmt.Println("a compare-and-branch, as real list-walking code does.")
}
