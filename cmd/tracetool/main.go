// Command tracetool generates, inspects, and converts simulator traces.
//
//	tracetool -gen mcf -n 500000 -o mcf.trc     # dump a profile workload
//	tracetool -info mcf.trc                      # characterize a trace file
//	tracetool -info -gen mcf -n 500000           # characterize a profile
//
// Trace files decouple regression baselines from generator changes and
// allow externally converted traces to run on the simulator (see
// workload.ReadTrace).
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
	flagOut  = flag.String("o", "", "write the trace to this file")
	flagInfo = flag.Bool("info", false, "print a trace characterization")
)

func main() {
	flag.Parse()

	var wl *workload.Workload
	switch {
	case *flagGen != "":
		if err := spec.SPECWorkload(*flagGen, *flagN).Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		wl = workload.Generate(workload.Profiles(*flagGen), *flagN, *flagSeed)
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if wl, err = workload.ReadTrace(f); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -gen NAME or a trace file argument")
		flag.Usage()
		os.Exit(2)
	}

	if *flagOut != "" {
		f, err := os.Create(*flagOut)
		if err != nil {
			fatal(err)
		}
		if err := workload.WriteTrace(f, wl); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d instructions\n", *flagOut, wl.Trace.Len())
	}
	if *flagInfo || *flagOut == "" {
		describe(wl)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracetool:", err)
	os.Exit(1)
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
