package spec

import (
	"fmt"
	"reflect"

	"icfp/internal/pipeline"
)

// BaseConfig returns the configuration every spec diverges from: the
// paper's Table 1 machine with the sampling methodology's default warmup
// (150 000 instructions replayed untimed before each measured sample).
// sim.DefaultConfig is this function.
func BaseConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = baseWarmup
	return cfg
}

// baseWarmup is BaseConfig's warmup length in instructions.
const baseWarmup = 150_000

// warmup returns the machine's effective warmup length: its override,
// else the base configuration's.
func (m Machine) warmup() int {
	if m.Overrides != nil && m.Overrides.Warmup != nil {
		return *m.Overrides.Warmup
	}
	return baseWarmup
}

// Overrides names the configuration fields a machine spec may change
// from BaseConfig. Every field is optional (nil leaves the base value);
// all values are small integers, booleans, or enum strings, so the
// canonical encoding is exact. Fields not named here — cache geometry,
// branch predictor shape, functional-check flags — are deliberately not
// overridable: a spec that needs them is a new base, not an override.
type Overrides struct {
	// Core.
	Width *int `json:"width,omitempty"` // superscalar width, 1..8

	// Memory hierarchy.
	L2HitLat   *int `json:"l2_hit_lat,omitempty"`  // L2 hit latency in cycles
	MemLat     *int `json:"mem_lat,omitempty"`     // memory latency in cycles
	NumMSHRs   *int `json:"num_mshrs,omitempty"`   // outstanding memory misses
	StreamBufs *int `json:"stream_bufs,omitempty"` // stream buffers (0 disables prefetch)

	// Structure sizes.
	StoreBufEntries   *int `json:"store_buf_entries,omitempty"`
	SliceEntries      *int `json:"slice_entries,omitempty"`
	ChainedSBEntries  *int `json:"chained_sb_entries,omitempty"`
	ChainTableEntries *int `json:"chain_table_entries,omitempty"`
	PoisonBits        *int `json:"poison_bits,omitempty"` // 1..8
	RunaheadCache     *int `json:"runahead_cache,omitempty"`
	SRLEntries        *int `json:"srl_entries,omitempty"`
	ResultBufEntries  *int `json:"result_buf_entries,omitempty"`
	ROBEntries        *int `json:"rob_entries,omitempty"` // ooo reorder buffer

	// Policies.
	BlockSecondaryD1 *bool `json:"block_secondary_d1,omitempty"` // Runahead "D$-b"
	MultithreadRally *bool `json:"multithread_rally,omitempty"`  // iCFP §3.1
	NonBlockingRally *bool `json:"non_blocking_rally,omitempty"` // iCFP vs SLTP rallies

	// Methodology.
	Warmup *int `json:"warmup,omitempty"` // untimed warmup instructions per sample
}

// Int returns a pointer to v, for building Overrides literals.
func Int(v int) *int { return &v }

// Bool returns a pointer to v, for building Overrides literals.
func Bool(v bool) *bool { return &v }

// intRange is one validated integer knob.
type intRange struct {
	name     string
	min, max int
}

// intRanges lists the integer override knobs, in the order ints returns
// them, with their accepted ranges. The caps are generous engineering
// bounds, not paper values: they exist so a spec arriving over the
// network cannot demand absurd allocations.
var intRanges = [...]intRange{
	{"width", 1, 8},
	{"l2_hit_lat", 1, 10_000},
	{"mem_lat", 1, 1_000_000},
	{"num_mshrs", 1, 4096},
	{"stream_bufs", 0, 256},
	{"store_buf_entries", 1, 1 << 16},
	{"slice_entries", 1, 1 << 16},
	{"chained_sb_entries", 1, 1 << 16},
	{"chain_table_entries", 1, 1 << 20},
	{"poison_bits", 1, 8},
	{"runahead_cache", 1, 1 << 20},
	{"srl_entries", 1, 1 << 16},
	{"result_buf_entries", 1, 1 << 16},
	{"rob_entries", 1, 4096},
	{"warmup", 0, maxInsts},
}

// ints returns the integer override fields in intRanges' order. The list
// is an array, returned by value, so validating allocates nothing.
func (o *Overrides) ints() [len(intRanges)]*int {
	return [...]*int{
		o.Width, o.L2HitLat, o.MemLat, o.NumMSHRs, o.StreamBufs,
		o.StoreBufEntries, o.SliceEntries, o.ChainedSBEntries, o.ChainTableEntries,
		o.PoisonBits, o.RunaheadCache, o.SRLEntries, o.ResultBufEntries, o.ROBEntries,
		o.Warmup,
	}
}

// Validate range-checks every set override.
func (o *Overrides) Validate() error {
	for i, v := range o.ints() {
		if r := &intRanges[i]; v != nil && (*v < r.min || *v > r.max) {
			return fmt.Errorf("spec: override %s=%d out of range %d..%d", r.name, *v, r.min, r.max)
		}
	}
	return nil
}

// apply writes the set overrides into cfg. The overrides must be valid.
func (o *Overrides) apply(cfg *pipeline.Config) {
	if o == nil {
		return
	}
	set := func(dst *int, v *int) {
		if v != nil {
			*dst = *v
		}
	}
	setb := func(dst *bool, v *bool) {
		if v != nil {
			*dst = *v
		}
	}
	set(&cfg.Width, o.Width)
	set(&cfg.Hier.L2HitLat, o.L2HitLat)
	set(&cfg.Hier.MemLat, o.MemLat)
	set(&cfg.Hier.NumMSHRs, o.NumMSHRs)
	set(&cfg.Hier.StreamBufs, o.StreamBufs)
	set(&cfg.StoreBufEntries, o.StoreBufEntries)
	set(&cfg.SliceEntries, o.SliceEntries)
	set(&cfg.ChainedSBEntries, o.ChainedSBEntries)
	set(&cfg.ChainTableEntries, o.ChainTableEntries)
	set(&cfg.PoisonBits, o.PoisonBits)
	set(&cfg.RunaheadCache, o.RunaheadCache)
	set(&cfg.SRLEntries, o.SRLEntries)
	set(&cfg.ResultBufEntries, o.ResultBufEntries)
	setb(&cfg.BlockSecondaryD1, o.BlockSecondaryD1)
	setb(&cfg.MultithreadRally, o.MultithreadRally)
	setb(&cfg.NonBlockingRally, o.NonBlockingRally)
	set(&cfg.WarmupInsts, o.Warmup)
	// ROBEntries is not a pipeline.Config field; the ooo constructor
	// reads it from the Overrides directly.
}

// OverridesFor expresses cfg as overrides of BaseConfig. It returns nil
// when cfg is the base itself, and an error when cfg diverges in a field
// no override names (cache geometry, predictor shape, trigger policy,
// value checking) — the caller's configuration cannot ride in a spec and
// must not be silently dropped.
func OverridesFor(cfg pipeline.Config) (*Overrides, error) {
	base := BaseConfig()
	var o Overrides
	diff := func(dst **int, have, want int) {
		if have != want {
			*dst = Int(have)
		}
	}
	diffb := func(dst **bool, have, want bool) {
		if have != want {
			*dst = Bool(have)
		}
	}
	diff(&o.Width, cfg.Width, base.Width)
	diff(&o.L2HitLat, cfg.Hier.L2HitLat, base.Hier.L2HitLat)
	diff(&o.MemLat, cfg.Hier.MemLat, base.Hier.MemLat)
	diff(&o.NumMSHRs, cfg.Hier.NumMSHRs, base.Hier.NumMSHRs)
	diff(&o.StreamBufs, cfg.Hier.StreamBufs, base.Hier.StreamBufs)
	diff(&o.StoreBufEntries, cfg.StoreBufEntries, base.StoreBufEntries)
	diff(&o.SliceEntries, cfg.SliceEntries, base.SliceEntries)
	diff(&o.ChainedSBEntries, cfg.ChainedSBEntries, base.ChainedSBEntries)
	diff(&o.ChainTableEntries, cfg.ChainTableEntries, base.ChainTableEntries)
	diff(&o.PoisonBits, cfg.PoisonBits, base.PoisonBits)
	diff(&o.RunaheadCache, cfg.RunaheadCache, base.RunaheadCache)
	diff(&o.SRLEntries, cfg.SRLEntries, base.SRLEntries)
	diff(&o.ResultBufEntries, cfg.ResultBufEntries, base.ResultBufEntries)
	diffb(&o.BlockSecondaryD1, cfg.BlockSecondaryD1, base.BlockSecondaryD1)
	diffb(&o.MultithreadRally, cfg.MultithreadRally, base.MultithreadRally)
	diffb(&o.NonBlockingRally, cfg.NonBlockingRally, base.NonBlockingRally)
	diff(&o.Warmup, cfg.WarmupInsts, base.WarmupInsts)

	// Round trip: base + overrides must reconstruct cfg exactly, or the
	// configuration diverges somewhere no override can express.
	check := base
	o.apply(&check)
	if !reflect.DeepEqual(check, cfg) {
		return nil, fmt.Errorf("spec: configuration diverges from the base in a field overrides cannot express (trigger policy, cache geometry, predictor shape, or check flags)")
	}
	return normalize(&o), nil
}

// Merge returns overrides taking every set field of primary and filling
// the rest from fallback. Either argument may be nil; the result is nil
// when no field is set at all, so canonical encodings stay minimal.
func Merge(primary, fallback *Overrides) *Overrides {
	if primary == nil {
		return normalize(fallback)
	}
	if fallback == nil {
		return normalize(primary)
	}
	out := *primary
	ov := reflect.ValueOf(&out).Elem()
	fv := reflect.ValueOf(fallback).Elem()
	for i := 0; i < ov.NumField(); i++ {
		if ov.Field(i).IsNil() {
			ov.Field(i).Set(fv.Field(i))
		}
	}
	return normalize(&out)
}

// normalize collapses an all-nil Overrides to nil; a non-nil result is
// a deep copy (fresh pointer cells, not aliases of the input's), so
// callers can hand one machine's Overrides to many jobs and mutate any
// copy without corrupting the others' cache identities.
func normalize(o *Overrides) *Overrides {
	if o == nil {
		return nil
	}
	var cp Overrides
	src := reflect.ValueOf(o).Elem()
	dst := reflect.ValueOf(&cp).Elem()
	set := false
	for i := 0; i < src.NumField(); i++ {
		f := src.Field(i)
		if f.IsNil() {
			continue
		}
		set = true
		cell := reflect.New(f.Type().Elem())
		cell.Elem().Set(f.Elem())
		dst.Field(i).Set(cell)
	}
	if !set {
		return nil
	}
	return &cp
}
