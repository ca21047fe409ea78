// Package pipeline holds the machinery shared by all five simulated
// micro-architectures (in-order, Runahead, Multipass, SLTP, iCFP): the
// Table 1 machine configuration, the front-end fetch/prediction model, the
// per-cycle issue-slot allocator, the register scoreboard with poison
// vectors and last-writer sequence numbers, the conventional
// associative store buffer, the in-order pipeline step over them
// (InOrder) that the store-buffer models share in normal mode, and the
// measured-window path (Core, Meter, interval sampling and shared warm
// state) every model runs through.
package pipeline

import (
	"icfp/internal/bpred"
	"icfp/internal/mem"
)

// Config is the full machine configuration (Table 1 plus the per-design
// structure sizes from §5).
type Config struct {
	// Core.
	Width        int // superscalar width (2)
	IntPorts     int // integer units (2)
	MemFPBrPorts int // fp/load/store/branch units (1)
	FrontDepth   int // fetch-to-issue stages: 3 I$ + decode + reg-read
	DCachePipe   int // D$ access stages (3)

	Hier  mem.Config
	Bpred bpred.Config

	// Conventional store buffer (baseline and all designs' normal mode).
	StoreBufEntries int

	// Advance-mode structures.
	SliceEntries      int // slice buffer (iCFP, SLTP)
	ChainedSBEntries  int // iCFP chained store buffer
	ChainTableEntries int // iCFP chain table
	PoisonBits        int // iCFP poison vector width (1..8)
	RunaheadCache     int // Runahead/Multipass runahead cache entries
	SRLEntries        int // SLTP store redo log entries
	ResultBufEntries  int // Multipass result buffer entries

	// Policies.
	// Trigger selects which misses enter advance mode.
	Trigger AdvanceTrigger
	// BlockSecondaryD1 makes advance execution wait out secondary data
	// cache misses instead of poisoning them (Runahead's "D$-b" option,
	// §2; irrelevant to iCFP, which always poisons).
	BlockSecondaryD1 bool
	// MultithreadRally lets iCFP overlap rally with tail advance (§3.1).
	MultithreadRally bool
	// NonBlockingRally lets iCFP make multiple rally passes, re-poisoning
	// slice loads that miss again. When false, rallies block on dependent
	// misses (the SLTP behaviour).
	NonBlockingRally bool

	// CheckValues enables functional assertions: forwarded store-buffer
	// values must match the trace's resolved load values.
	CheckValues bool

	// WarmupInsts replays this many leading trace instructions into the
	// caches and predictor untimed before measurement begins (the paper
	// warms 4M instructions per 1M sample).
	WarmupInsts int
}

// DefaultConfig returns the paper's simulated processor (Table 1) with
// full iCFP features enabled.
func DefaultConfig() Config {
	return Config{
		Width:             2,
		IntPorts:          2,
		MemFPBrPorts:      1,
		FrontDepth:        5,
		DCachePipe:        3,
		Hier:              mem.DefaultConfig(),
		Bpred:             bpred.DefaultConfig(),
		StoreBufEntries:   32,
		SliceEntries:      128,
		ChainedSBEntries:  128,
		ChainTableEntries: 512,
		PoisonBits:        8,
		RunaheadCache:     256,
		SRLEntries:        128,
		ResultBufEntries:  128,
		Trigger:           TriggerL2Only,
		BlockSecondaryD1:  true,
		MultithreadRally:  true,
		NonBlockingRally:  true,
	}
}

// Result reports one simulation run. Fields that do not apply to a given
// micro-architecture are zero.
type Result struct {
	Name   string // workload name
	Cycles int64
	Insts  int64 // committed program instructions

	// Memory behaviour.
	DCacheMissPerKI float64 // demand L1D misses per kilo-instruction
	L2MissPerKI     float64 // demand memory misses per kilo-instruction
	DCacheMLP       float64
	L2MLP           float64

	// Front end.
	BranchMispredicts uint64

	// Advance/rally behaviour.
	Advances       uint64  // mode transitions into advance
	AdvanceInsts   uint64  // instructions processed in advance mode
	RallyInsts     uint64  // instructions re-executed during rallies
	RallyPasses    uint64  // rally passes over the slice buffer
	RallyPerKI     float64 // rally instructions per kilo-instruction
	SliceOverflows uint64  // transitions to simple-runahead on slice full
	SBOverflows    uint64  // transitions on store-buffer full
	PoisonAddrObs  uint64  // poisoned-address stores observed
	Squashes       uint64  // checkpoint restores from branch divergence

	// iCFP chained store buffer behaviour (§3.2).
	SBForwards    uint64
	SBExtraHops   float64 // mean excess chain hops per load
	SBHopsAtLeast float64 // fraction of loads with >= 5 extra hops

	// Interval sampling (zero for full runs). Both fields are additive
	// to the persisted result schema: records written before they
	// existed decode them as zero, i.e. as full runs.
	SampleIntervals int     // measurement windows combined into this result
	SampleCPICI95   float64 // 95% confidence half-width of CPI across windows
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// CPI returns cycles per committed instruction (0 when nothing ran).
func (r Result) CPI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Insts)
}

// SpeedupOver returns the percent speedup of r over base on the same
// workload (positive means r is faster).
func (r Result) SpeedupOver(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return (float64(base.Cycles)/float64(r.Cycles) - 1) * 100
}
