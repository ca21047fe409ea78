package registry

import (
	"fmt"
	"io"

	"icfp/internal/area"
	"icfp/internal/exp"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// The paper's five machines in presentation order; their labels name
// the registry's jobs.
var (
	paperMachines = sim.PaperMachines()
	// inOrder is the baseline every speedup divides by.
	inOrder = paperMachines[0].Machine
	// icfpMachine is full iCFP, the subject of the structure studies.
	icfpMachine = paperMachines[4].Machine
	// fig5Models are the four latency-tolerant designs compared against
	// the in-order baseline throughout the evaluation.
	fig5Models = paperMachines[1:]
)

// fig6Lats are the L2 hit latencies of the Figure 6 sweep.
var fig6Lats = []int{10, 20, 30, 40, 50}

// figure7Names are the benchmarks the paper shows in the feature build.
var figure7Names = []string{"ammp", "applu", "art", "equake", "swim", "bzip2", "gap", "gzip", "mcf", "vpr"}

// figure8Names are the benchmarks the paper shows for store buffers.
var figure8Names = []string{"applu", "equake", "swim", "bzip2", "gzip", "vpr"}

// ablateNames pair a dependent-miss workload with a streaming one.
var ablateNames = []string{"mcf", "swim"}

func table1Exp() Experiment {
	e := Experiment{
		Name: "table1",
		Desc: "simulated processor configuration (Table 1)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		return newSuite(e, p).done() // analytic: no simulations
	}
	e.Print = func(w io.Writer, p Params, _ *exp.ResultSet) {
		cfg := p.Cfg
		h := cfg.Hier
		fmt.Fprintln(w, "== Table 1: simulated processor configuration ==")
		fmt.Fprintf(w, "Pipeline   %d-wide, %d front-end stages + 1 ALU + %d D$ + 1 reg-write; %d int ports, %d fp/ls/br port\n",
			cfg.Width, cfg.FrontDepth, cfg.DCachePipe, cfg.IntPorts, cfg.MemFPBrPorts)
		fmt.Fprintf(w, "Bpred      PPM %d-table (hist %v), %d-entry BTB, %d-entry RAS\n",
			len(cfg.Bpred.HistLens), cfg.Bpred.HistLens, 1<<cfg.Bpred.BTBBits, cfg.Bpred.RASEntries)
		fmt.Fprintf(w, "I$/D$      %d KB, %d-way, %d B lines, %d-entry victim buffers\n",
			h.L1D.SizeBytes>>10, h.L1D.Assoc, h.L1D.LineBytes, h.L1D.VictimEntries)
		fmt.Fprintf(w, "L2         %d MB, %d-way, %d B lines, %d-cycle hit, %d-entry victim buffer\n",
			h.L2.SizeBytes>>20, h.L2.Assoc, h.L2.LineBytes, h.L2HitLat, h.L2.VictimEntries)
		fmt.Fprintf(w, "Memory     %d-cycle latency, %d cycles per %d B chunk, %d MSHRs\n",
			h.MemLat, h.MemChunkLat, h.MemChunkBytes, h.NumMSHRs)
		fmt.Fprintf(w, "Prefetch   %d stream buffers x %d blocks\n", h.StreamBufs, h.StreamBufBlocks)
		fmt.Fprintf(w, "iCFP       %d-entry chained SB, %d-entry chain table, %d-entry slice buffer, %d-bit poison vectors\n",
			cfg.ChainedSBEntries, cfg.ChainTableEntries, cfg.SliceEntries, cfg.PoisonBits)
		fmt.Fprintf(w, "Others     %d-entry runahead cache, %d-entry SRL, %d-entry result buffer, %d-entry store buffer\n\n",
			cfg.RunaheadCache, cfg.SRLEntries, cfg.ResultBufEntries, cfg.StoreBufEntries)
	}
	return e
}

// fig5Suite builds the Figure 5 job set under e's name prefix: the
// in-order baseline and the four latency-tolerant designs over every
// benchmark. fig5 and its sampled variant fig5s share it; the distinct
// prefixes keep their jobs from colliding when both are selected.
func fig5Suite(e Experiment, p Params) (spec.Suite, error) {
	b := newSuite(e, p)
	for _, name := range workload.AllSPECNames {
		wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
		b.add(e.Name+"/"+name+"/base", inOrder, p.Cfg, wl)
		for _, m := range fig5Models {
			b.add(e.Name+"/"+name+"/"+m.Label, m.Machine, p.Cfg, wl)
		}
	}
	return b.done()
}

func fig5Exp() Experiment {
	e := Experiment{
		Name: "fig5",
		Desc: "speedups over in-order: Runahead, Multipass, SLTP, iCFP (Figure 5)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		return fig5Suite(e, p)
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		// Sampled cells (the -sample flag family) grow a ±CI tail; full
		// cells format exactly as always, keeping the golden intact.
		sp := func(name string, m sim.Labeled) string {
			return spCell(rs, "%+8.1f%%", "fig5/"+name+"/"+m.Label, "fig5/"+name+"/base")
		}
		fmt.Fprintln(w, "== Figure 5: % speedup over in-order ==")
		fmt.Fprintf(w, "%-9s %9s %9s %9s %9s\n", "bench", "Runahead", "Multipass", "SLTP", "iCFP")
		for _, name := range workload.AllSPECNames {
			fmt.Fprintf(w, "%-9s", name)
			for _, m := range fig5Models {
				fmt.Fprintf(w, " %s", sp(name, m))
			}
			fmt.Fprintln(w)
		}
		for _, grp := range []struct {
			label string
			names []string
		}{
			{"SPECfp", workload.SPECfpNames},
			{"SPECint", workload.SPECintNames},
			{"SPEC", workload.AllSPECNames},
		} {
			fmt.Fprintf(w, "%-9s", grp.label)
			for _, m := range fig5Models {
				pairs := make([][2]string, 0, len(grp.names))
				for _, name := range grp.names {
					pairs = append(pairs, [2]string{"fig5/" + name + "/" + m.Label, "fig5/" + name + "/base"})
				}
				fmt.Fprintf(w, " %+8.1f%%", rs.GeoMeanSpeedup(pairs))
			}
			fmt.Fprintln(w, "   (geomean)")
		}
		fmt.Fprintln(w, "paper geomeans: Runahead 11%, Multipass 11%, SLTP 9%, iCFP 16%")
		fmt.Fprintln(w)
	}
	return e
}

// fig5sExp is fig5's sampled long-workload variant: the same comparison
// at 25x the instruction count (the paper-scale regime where sampling
// theory applies), measured by interval sampling at near-constant
// detailed cost, with every cell carrying its 95% confidence
// half-width. It is Extra — excluded from -all so the full-mode report
// and its golden stay exactly the paper's evaluation — and runs when
// named (-fig5s), under DefaultSampling unless the -sample flag family
// pins a policy.
func fig5sExp() Experiment {
	const scale = 25
	e := Experiment{
		Name:  "fig5s",
		Desc:  "Figure 5 at 25x workload length via interval sampling (speedup ± 95% CI)",
		Extra: true,
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		q := p
		q.N = p.N * scale
		if q.Sampling == nil {
			q.Sampling = DefaultSampling(q.Cfg.WarmupInsts + q.N)
		}
		return fig5Suite(e, q)
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== Figure 5 sampled, 25x length: % speedup over in-order ± 95% CI ==")
		fmt.Fprintf(w, "%-9s %14s %14s %14s %14s\n", "bench", "Runahead", "Multipass", "SLTP", "iCFP")
		for _, name := range workload.AllSPECNames {
			fmt.Fprintf(w, "%-9s", name)
			for _, m := range fig5Models {
				sp, ci := rs.SpeedupCI95("fig5s/"+name+"/"+m.Label, "fig5s/"+name+"/base")
				fmt.Fprintf(w, " %14s", fmt.Sprintf("%+.1f%%±%.1f", sp, ci))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-9s", "SPEC")
		for _, m := range fig5Models {
			pairs := make([][2]string, 0, len(workload.AllSPECNames))
			for _, name := range workload.AllSPECNames {
				pairs = append(pairs, [2]string{"fig5s/" + name + "/" + m.Label, "fig5s/" + name + "/base"})
			}
			fmt.Fprintf(w, " %+13.1f%%", rs.GeoMeanSpeedup(pairs))
		}
		fmt.Fprintln(w, "   (geomean)")
		fmt.Fprintln(w)
	}
	return e
}

func table2Exp() Experiment {
	models := []sim.Labeled{paperMachines[0], paperMachines[1], paperMachines[4]} // in-order, Runahead, iCFP
	e := Experiment{
		Name: "table2",
		Desc: "diagnostics: miss rates, D$/L2 MLP, iCFP rally rate (Table 2)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		for _, name := range workload.AllSPECNames {
			wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
			for _, m := range models {
				b.add("table2/"+name+"/"+m.Label, m.Machine, p.Cfg, wl)
			}
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== Table 2: diagnostics (miss/KI from the in-order baseline) ==")
		fmt.Fprintf(w, "%-9s %6s %6s | %6s %6s %6s | %6s %6s %6s | %8s\n",
			"bench", "D$/KI", "L2/KI", "dMLPiO", "dMLPra", "dMLPic", "l2iO", "l2ra", "l2ic", "rally/KI")
		for _, name := range workload.AllSPECNames {
			io := rs.MustGet("table2/" + name + "/in-order")
			ra := rs.MustGet("table2/" + name + "/Runahead")
			ic := rs.MustGet("table2/" + name + "/iCFP")
			fmt.Fprintf(w, "%-9s %6.1f %6.1f | %6.1f %6.1f %6.1f | %6.1f %6.1f %6.1f | %8.0f\n",
				name, io.DCacheMissPerKI, io.L2MissPerKI,
				io.DCacheMLP, ra.DCacheMLP, ic.DCacheMLP,
				io.L2MLP, ra.L2MLP, ic.L2MLP, ic.RallyPerKI)
		}
		fmt.Fprintln(w)
	}
	return e
}

func fig6Exp() Experiment {
	machines := sim.Figure6Machines()[1:] // skip the in-order baseline row
	e := Experiment{
		Name: "fig6",
		Desc: "L2 hit-latency sensitivity, equake + SPEC geomean (Figure 6)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		n2 := p.N / 2 // the full-suite sweep is the heaviest experiment
		for _, lat := range fig6Lats {
			cl := p.Cfg
			cl.Hier.L2HitLat = lat
			wlEq := spec.SPECWorkload("equake", cl.WarmupInsts+p.N)
			b.add(fmt.Sprintf("fig6/equake/base/%d", lat), inOrder, cl, wlEq)
			for _, m := range machines {
				b.add(fmt.Sprintf("fig6/equake/%s/%d", m.Label, lat), m.Machine, cl, wlEq)
			}
			for _, bench := range workload.AllSPECNames {
				wl := spec.SPECWorkload(bench, cl.WarmupInsts+n2)
				b.add(fmt.Sprintf("fig6/spec/%s/base/%d", bench, lat), inOrder, cl, wl)
				for _, m := range machines {
					b.add(fmt.Sprintf("fig6/spec/%s/%s/%d", bench, m.Label, lat), m.Machine, cl, wl)
				}
			}
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== Figure 6: % speedup over in-order vs L2 hit latency ==")
		header := func() {
			fmt.Fprintf(w, "%-18s", "config")
			for _, l := range fig6Lats {
				fmt.Fprintf(w, " %7d", l)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "-- equake --")
		header()
		for _, m := range machines {
			fmt.Fprintf(w, "%-18s", m.Label)
			for _, lat := range fig6Lats {
				fmt.Fprintf(w, " %s", spCell(rs, "%+6.1f%%",
					fmt.Sprintf("fig6/equake/%s/%d", m.Label, lat),
					fmt.Sprintf("fig6/equake/base/%d", lat)))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "-- SPEC geomean --")
		header()
		for _, m := range machines {
			fmt.Fprintf(w, "%-18s", m.Label)
			for _, lat := range fig6Lats {
				pairs := make([][2]string, 0, len(workload.AllSPECNames))
				for _, bench := range workload.AllSPECNames {
					pairs = append(pairs, [2]string{
						fmt.Sprintf("fig6/spec/%s/%s/%d", bench, m.Label, lat),
						fmt.Sprintf("fig6/spec/%s/base/%d", bench, lat)})
				}
				fmt.Fprintf(w, " %+6.1f%%", rs.GeoMeanSpeedup(pairs))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return e
}

func fig7Exp() Experiment {
	builds := sim.FeatureBuildConfigs()
	e := Experiment{
		Name: "fig7",
		Desc: "iCFP feature build from SLTP (Figure 7)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		for _, name := range figure7Names {
			wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
			b.add("fig7/"+name+"/base", inOrder, p.Cfg, wl)
			for i, build := range builds {
				b.add(fmt.Sprintf("fig7/%s/bar%d", name, i+1), build.Machine, p.Cfg, wl)
			}
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== Figure 7: iCFP feature build, % speedup over in-order ==")
		fmt.Fprintf(w, "%-9s", "bench")
		for i := range builds {
			fmt.Fprintf(w, "  bar%d   ", i+1)
		}
		fmt.Fprintln(w)
		for i, b := range builds {
			fmt.Fprintf(w, "bar%d = %s\n", i+1, b.Label)
		}
		for _, name := range figure7Names {
			fmt.Fprintf(w, "%-9s", name)
			for i := range builds {
				fmt.Fprintf(w, " %s", spCell(rs, "%+7.1f%%", fmt.Sprintf("fig7/%s/bar%d", name, i+1), "fig7/"+name+"/base"))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return e
}

func fig8Exp() Experiment {
	sbs := sim.StoreBufferConfigs()
	e := Experiment{
		Name: "fig8",
		Desc: "store-buffer design comparison (Figure 8)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		for _, name := range figure8Names {
			wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
			b.add("fig8/"+name+"/base", inOrder, p.Cfg, wl)
			for _, sb := range sbs {
				b.add(fmt.Sprintf("fig8/%s/%s", name, sb.Label), sb.Machine, p.Cfg, wl)
			}
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== Figure 8: store buffer designs, % speedup over in-order ==")
		fmt.Fprintf(w, "%-9s %12s %12s %12s\n", "bench", "limited", "chained", "ideal")
		for _, name := range figure8Names {
			fmt.Fprintf(w, "%-9s", name)
			for _, sb := range sbs {
				fmt.Fprintf(w, " %s", spCell(rs, "%+11.1f%%", fmt.Sprintf("fig8/%s/%s", name, sb.Label), "fig8/"+name+"/base"))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return e
}

func hopsExp() Experiment {
	e := Experiment{
		Name: "hops",
		Desc: "chained store buffer hop statistics and chain-table size (§3.2)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		small := p.Cfg
		small.ChainTableEntries = 64
		for _, name := range workload.AllSPECNames {
			wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
			b.add("hops/"+name+"/512", icfpMachine, p.Cfg, wl)
			b.add("hops/"+name+"/64", icfpMachine, small, wl)
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== §3.2: chained store buffer excess hops per load ==")
		fmt.Fprintf(w, "%-9s %12s %12s | %12s\n", "bench", "hops(512ct)", ">=5 hops", "hops(64ct)")
		for _, name := range workload.AllSPECNames {
			r := rs.MustGet("hops/" + name + "/512")
			r64 := rs.MustGet("hops/" + name + "/64")
			fmt.Fprintf(w, "%-9s %12.3f %11.1f%% | %12.3f\n", name, r.SBExtraHops, r.SBHopsAtLeast*100, r64.SBExtraHops)
		}
		fmt.Fprintln(w, "paper: < 0.5 for all benchmarks, < 0.05 for most")
		fmt.Fprintln(w)
	}
	return e
}

func poisonExp() Experiment {
	e := Experiment{
		Name: "poison",
		Desc: "poison vector width study, 1 vs 8 bits (§3.4)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		one := p.Cfg
		one.PoisonBits = 1
		for _, name := range workload.AllSPECNames {
			wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
			b.add("poison/"+name+"/1", icfpMachine, one, wl)
			b.add("poison/"+name+"/8", icfpMachine, p.Cfg, wl)
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== §3.4: poison vector width (speedup of 8-bit over 1-bit) ==")
		speedups := []float64{}
		for _, name := range workload.AllSPECNames {
			speedups = append(speedups, rs.Speedup("poison/"+name+"/8", "poison/"+name+"/1"))
			fmt.Fprintf(w, "%-9s %s\n", name, spCell(rs, "%+6.1f%%", "poison/"+name+"/8", "poison/"+name+"/1"))
		}
		fmt.Fprintf(w, "%-9s %+6.1f%%   (paper: +1.5%% average, +6%% on mcf)\n\n", "geomean", exp.GeoMeanPercent(speedups))
	}
	return e
}

func areaExp() Experiment {
	e := Experiment{
		Name: "area",
		Desc: "area overheads at 45 nm (§5.3)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		return newSuite(e, p).done() // analytic: no simulations
	}
	e.Print = func(w io.Writer, p Params, _ *exp.ResultSet) {
		fmt.Fprintln(w, "== §5.3: area overheads (45 nm) ==")
		for _, d := range area.AllDesigns() {
			fmt.Fprintf(w, "%-10s %.3f mm²  (paper %.2f)\n", d.Name, d.Total(), area.PaperMM2[d.Name])
			for _, s := range d.Structures {
				fmt.Fprintf(w, "    %-28s %.4f\n", s.Name, s.MM2())
			}
		}
		fmt.Fprintln(w)
	}
	return e
}

func oooExp() Experiment {
	e := Experiment{
		Name: "ooo",
		Desc: "out-of-order and out-of-order CFP comparison (§5.3)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		for _, name := range workload.AllSPECNames {
			wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
			b.add("ooo/"+name+"/base", inOrder, p.Cfg, wl)
			b.add("ooo/"+name+"/2way", spec.Machine{Model: spec.ModelOOO}, p.Cfg, wl)
			b.add("ooo/"+name+"/cfp", spec.Machine{Model: spec.ModelOOO, CFP: true}, p.Cfg, wl)
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== §5.3: 2-way out-of-order and out-of-order CFP vs in-order ==")
		var po, pc [][2]string
		for _, name := range workload.AllSPECNames {
			fmt.Fprintf(w, "%-9s ooo %s   ooo-cfp %s\n", name,
				spCell(rs, "%+7.1f%%", "ooo/"+name+"/2way", "ooo/"+name+"/base"),
				spCell(rs, "%+7.1f%%", "ooo/"+name+"/cfp", "ooo/"+name+"/base"))
			po = append(po, [2]string{"ooo/" + name + "/2way", "ooo/" + name + "/base"})
			pc = append(pc, [2]string{"ooo/" + name + "/cfp", "ooo/" + name + "/base"})
		}
		fmt.Fprintf(w, "%-9s ooo %+7.1f%%   ooo-cfp %+7.1f%%   (geomean; paper: +68%% and +83%%)\n\n",
			"SPEC", rs.GeoMeanSpeedup(po), rs.GeoMeanSpeedup(pc))
	}
	return e
}

// ablateSweeps are the DESIGN.md structure-size ablations: each varies
// one iCFP structure over a range of sizes.
var ablateSweeps = []struct {
	label  string
	vals   []int
	modify func(cfg *pipeline.Config, v int)
}{
	{"slice buffer entries", []int{32, 64, 128, 256}, func(cfg *pipeline.Config, v int) { cfg.SliceEntries = v }},
	{"chained store buffer entries", []int{32, 64, 128, 256}, func(cfg *pipeline.Config, v int) { cfg.ChainedSBEntries = v }},
	{"poison vector width (bits)", []int{1, 2, 4, 8}, func(cfg *pipeline.Config, v int) { cfg.PoisonBits = v }},
}

func ablateExp() Experiment {
	e := Experiment{
		Name: "ablate",
		Desc: "iCFP structure-size ablations (DESIGN.md)",
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		// The in-order baseline ignores every swept structure, so one
		// baseline per benchmark serves all sweep points.
		for _, name := range ablateNames {
			wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
			b.add("ablate/base/"+name, inOrder, p.Cfg, wl)
		}
		for si, sweep := range ablateSweeps {
			for _, v := range sweep.vals {
				c := p.Cfg
				sweep.modify(&c, v)
				for _, name := range ablateNames {
					wl := spec.SPECWorkload(name, p.Cfg.WarmupInsts+p.N)
					b.add(fmt.Sprintf("ablate/%d/%d/%s", si, v, name), icfpMachine, c, wl)
				}
			}
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== Ablations: iCFP structure sizing ==")
		for si, sweep := range ablateSweeps {
			fmt.Fprintf(w, "-- %s --\n", sweep.label)
			for _, v := range sweep.vals {
				fmt.Fprintf(w, "%4d:", v)
				for _, name := range ablateNames {
					fmt.Fprintf(w, "  %s %s", name,
						spCell(rs, "%+7.1f%%", fmt.Sprintf("ablate/%d/%d/%s", si, v, name), "ablate/base/"+name))
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintln(w)
	}
	return e
}

// fuzzModels are the latency-tolerant designs the fuzz-corpus
// experiment compares against the in-order baseline.
var fuzzModels = []sim.Labeled{paperMachines[1], paperMachines[3], paperMachines[4]}

func fuzzExp() Experiment {
	e := Experiment{
		Name: "fuzz",
		Desc: "adversarial fuzz-corpus cross-model comparison (workload.FuzzCorpus)",
		// The corpus is a correctness instrument, not a paper figure:
		// keep it out of -all so the committed -all golden stays exactly
		// the paper's evaluation.
		Extra: true,
	}
	e.Suite = func(p Params) (spec.Suite, error) {
		b := newSuite(e, p)
		for _, c := range workload.FuzzCorpus() {
			wl := spec.FuzzWorkload(c.Seed, c.Knobs, p.Cfg.WarmupInsts+p.N)
			b.add("fuzz/"+c.Label+"/base", inOrder, p.Cfg, wl)
			for _, m := range fuzzModels {
				b.add("fuzz/"+c.Label+"/"+m.Label, m.Machine, p.Cfg, wl)
			}
		}
		return b.done()
	}
	e.Print = func(w io.Writer, p Params, rs *exp.ResultSet) {
		fmt.Fprintln(w, "== adversarial fuzz corpus: percent speedup over in-order ==")
		fmt.Fprintf(w, "%-13s", "scenario")
		for _, m := range fuzzModels {
			fmt.Fprintf(w, " %9s", m.Label)
		}
		fmt.Fprintln(w)
		speedups := make(map[string][]float64)
		for _, c := range workload.FuzzCorpus() {
			fmt.Fprintf(w, "%-13s", c.Label)
			base := "fuzz/" + c.Label + "/base"
			for _, m := range fuzzModels {
				name := "fuzz/" + c.Label + "/" + m.Label
				speedups[m.Label] = append(speedups[m.Label], rs.Speedup(name, base))
				fmt.Fprintf(w, " %s", spCell(rs, "%+8.1f%%", name, base))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-13s", "geomean")
		for _, m := range fuzzModels {
			fmt.Fprintf(w, " %+8.1f%%", exp.GeoMeanPercent(speedups[m.Label]))
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
	}
	return e
}
