// Package sim names the machines of the paper's evaluation as
// declarative specs: the five compared designs in presentation order,
// and the machine lists behind Figures 6, 7 and 8. spec.Machine.New (or
// NewOn, for a configuration in hand) builds any of them; the
// experiment registry runs them as exp harness jobs.
package sim

import (
	"icfp/internal/pipeline"
	"icfp/internal/spec"
)

// DefaultConfig returns the Table 1 machine with the paper's sampling
// methodology defaults — the configuration every spec diverges from
// (spec.BaseConfig).
func DefaultConfig() pipeline.Config {
	return spec.BaseConfig()
}

// Labeled is one machine of a figure: a display label and the
// declarative machine spec behind it.
type Labeled struct {
	Label   string
	Machine spec.Machine
}

// PaperMachines returns the five machines of the paper's evaluation in
// presentation order, each with its paper defaults (no trigger or
// store-buffer variation, no overrides). The labels are the job names of
// every registry suite and the sub-benchmark names of the root
// benchmarks, so they must not change.
func PaperMachines() []Labeled {
	return []Labeled{
		{"in-order", spec.Machine{Model: spec.ModelInOrder}},
		{"Runahead", spec.Machine{Model: spec.ModelRunahead}},
		{"Multipass", spec.Machine{Model: spec.ModelMultipass}},
		{"SLTP", spec.Machine{Model: spec.ModelSLTP}},
		{"iCFP", paperICFP},
	}
}

// paperICFP is the paper's iCFP with every feature at its default: the
// machine of Figure 5 and the last bar of Figure 7.
var paperICFP = spec.Machine{Model: spec.ModelICFP}

// Figure6Machines returns the six configurations of the paper's L2
// hit-latency sensitivity study: the baseline, three Runahead trigger
// variants, and two iCFP trigger variants. RA-L2, advance under L2
// misses with D$-blocking, is the paper's Runahead as PaperMachines
// spells it, so at the base latency it shares Figure 5's simulations.
func Figure6Machines() []Labeled {
	return []Labeled{
		{"in-order", spec.Machine{Model: spec.ModelInOrder}},
		{"RA-L2", spec.Machine{Model: spec.ModelRunahead}},
		{"RA-L2/D$-primary", spec.Machine{Model: spec.ModelRunahead, Trigger: spec.TriggerPrimaryD1,
			Overrides: &spec.Overrides{BlockSecondaryD1: spec.Bool(true)}}},
		{"RA-all", spec.Machine{Model: spec.ModelRunahead, Trigger: spec.TriggerAll,
			Overrides: &spec.Overrides{BlockSecondaryD1: spec.Bool(false)}}},
		{"iCFP-L2", spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerL2}},
		{"iCFP-all", spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerAll}},
	}
}

// FeatureBuildConfigs returns the Figure 7 "build" from SLTP to full
// iCFP. The first entry is the SLTP machine itself; the rest are iCFP
// configurations adding one feature at a time. The last bar, every
// feature on, is the paper's iCFP spelled as PaperMachines spells it, so
// it shares Figure 5's simulations instead of repeating them under
// another key.
func FeatureBuildConfigs() []Labeled {
	icfpBuild := func(nonBlocking, multithread bool, poisonBits int) spec.Machine {
		return spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerAll,
			Overrides: &spec.Overrides{
				NonBlockingRally: spec.Bool(nonBlocking),
				MultithreadRally: spec.Bool(multithread),
				PoisonBits:       spec.Int(poisonBits),
			}}
	}
	return []Labeled{
		{"SRL memory, single blocking rallies (SLTP)", spec.Machine{Model: spec.ModelSLTP}},
		{"+ address-hash chaining", icfpBuild(false, false, 1)},
		{"+ multiple non-blocking rallies", icfpBuild(true, false, 1)},
		{"+ 8-bit poison vectors", icfpBuild(true, false, 8)},
		{"+ multithreaded rallies (iCFP)", paperICFP},
	}
}

// StoreBufferConfigs returns the Figure 8 store-buffer design
// comparison: indexed-limited, chained, and idealized fully-associative.
func StoreBufferConfigs() []Labeled {
	icfpSB := func(sb string) spec.Machine {
		return spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerAll, StoreBuffer: sb}
	}
	return []Labeled{
		{"indexed with limited forwarding", icfpSB(spec.SBLimited)},
		{"chained (iCFP)", icfpSB(spec.SBChained)},
		{"fully-associative (idealized)", icfpSB(spec.SBIdeal)},
	}
}
