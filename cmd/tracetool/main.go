// Command tracetool characterizes a generated SPEC2000 profile trace:
// its instruction mix, memory footprint and branch behaviour.
//
//	tracetool -gen mcf -n 500000
package main

import (
	"flag"
	"fmt"
	"os"

	"icfp/internal/isa"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

var (
	flagGen  = flag.String("gen", "", "generate the named SPEC2000 profile workload")
	flagN    = flag.Int("n", 500_000, "instructions to generate")
	flagSeed = flag.Int64("seed", workload.DefaultSeed, "generator seed")
)

func main() {
	flag.Parse()
	if *flagGen == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "need -gen NAME and no arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := spec.SPECWorkload(*flagGen, *flagN).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	describe(workload.Generate(workload.Profiles(*flagGen), *flagN, *flagSeed))
}

// describe prints the static characterization of a trace: instruction
// mix, memory footprint, branch behaviour.
func describe(wl *workload.Workload) {
	var ops [16]int
	lines := map[uint64]struct{}{}
	pcs := map[uint64]struct{}{}
	taken := 0
	var branches int
	for i := 0; i < wl.Trace.Len(); i++ {
		in := wl.Trace.At(i)
		ops[in.Op]++
		pcs[in.PC] = struct{}{}
		if in.Op.IsMem() {
			lines[in.Addr&^63] = struct{}{}
		}
		if in.Op == isa.OpBranch {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	n := wl.Trace.Len()
	fmt.Printf("trace %q: %d instructions, %d static PCs\n", wl.Name, n, len(pcs))
	fmt.Println("mix:")
	for op := isa.OpNop; op <= isa.OpRet; op++ {
		if ops[op] == 0 {
			continue
		}
		fmt.Printf("  %-6s %8d  (%.1f%%)\n", op, ops[op], 100*float64(ops[op])/float64(n))
	}
	fmt.Printf("data footprint: %d distinct 64B lines (%.1f KB)\n", len(lines), float64(len(lines))*64/1024)
	if branches > 0 {
		fmt.Printf("branches: %d, %.1f%% taken\n", branches, 100*float64(taken)/float64(branches))
	}
}
