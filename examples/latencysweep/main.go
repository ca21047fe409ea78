// Latency sweep: reproduce the shape of the paper's Figure 6 on the
// equake profile — the benchmark whose secondary data-cache misses create
// Runahead's "D$-blocking vs D$-non-blocking" dilemma. As the L2 hit
// latency grows, advancing under data-cache misses becomes profitable;
// iCFP advances under every miss at every latency without regret.
//
// The sweeps share one harness cache, so the in-order baseline at each
// latency simulates once and is reused by every machine swept against it.
package main

import (
	"fmt"
	"os"

	"icfp/internal/exp"
	"icfp/internal/sim"
	"icfp/internal/spec"
)

func main() {
	lats := []int{10, 20, 30, 40, 50}
	const timed = 250_000
	wl := spec.SPECWorkload("equake", spec.BaseConfig().WarmupInsts+timed)

	machines := sim.Figure6Machines()
	baseline, machines := machines[0].Machine, machines[1:]
	cache := exp.NewCache()

	fmt.Println("equake-profile speedup over in-order vs L2 hit latency")
	fmt.Printf("%-18s", "config")
	for _, l := range lats {
		fmt.Printf(" %7dc", l)
	}
	fmt.Println()
	for _, m := range machines {
		// One run per machine: the machine and the in-order baseline at
		// every latency. Baselines an earlier run already simulated are
		// answered from the shared cache.
		var jobs []exp.Job
		for _, lat := range lats {
			at := func(name string, mach spec.Machine) exp.Job {
				mach.Overrides = spec.Merge(mach.Overrides, &spec.Overrides{L2HitLat: spec.Int(lat)})
				return exp.Job{Name: fmt.Sprintf("%s/%d", name, lat), Machine: mach, Workload: wl}
			}
			jobs = append(jobs, at("base", baseline), at("test", m.Machine))
		}
		rs, err := exp.Run(jobs, exp.WithCache(cache))
		if err != nil {
			fmt.Fprintln(os.Stderr, "latencysweep:", err)
			os.Exit(1)
		}
		fmt.Printf("%-18s", m.Label)
		for _, lat := range lats {
			fmt.Printf(" %+7.1f%%", rs.Speedup(fmt.Sprintf("test/%d", lat), fmt.Sprintf("base/%d", lat)))
		}
		fmt.Println()
	}
	fmt.Printf("(%d simulations for %d cells: each latency's in-order baseline ran once, shared by all %d machines)\n",
		cache.Simulations(), len(machines)*len(lats), len(machines))
}
