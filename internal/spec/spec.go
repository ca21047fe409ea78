// Package spec is the declarative vocabulary of the evaluation: a small,
// JSON-serializable way to name a machine, a workload, and a suite of
// experiments. Everything the harness can simulate is expressible as a
// spec value, and every spec value marshals losslessly — so experiments
// are data, not code: they can be written by hand, emitted by
// `cmd/experiments -describe`, shipped to distributed workers, and keyed
// in persistent caches, all in one format.
//
// The canonical encoding (Machine.Canonical, Workload.Canonical: compact
// JSON with sorted object keys) is the identity of a machine or workload
// throughout the module: it is the memoization key of internal/exp, the
// wire identity of internal/dist batches, and the key of result-store
// records and persisted cache snapshots.
// Two specs with equal canonical encodings always construct identical
// simulations; specs with different encodings are simply cached apart.
//
// Decoding is strict by design: unknown fields and out-of-range values
// are rejected with actionable errors (UnmarshalSuite, Validate), so a
// typo'd knob fails loudly instead of silently simulating the default
// machine. Like the canonical encoders, the suite decoder is written by
// hand for the schema (one pass, no reflection); encoding/json's strict
// reflective decode is its test oracle, and the two accept the same
// documents and build the same values.
package spec

import (
	"encoding/json"
	"fmt"
	"slices"

	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

// Runner runs a workload; every machine a spec can name satisfies it.
type Runner interface {
	Run(w *workload.Workload) pipeline.Result
}

// SampledRunner additionally runs a workload under a sampling policy.
// Every machine a spec can name satisfies it too; the split interface
// keeps Runner — the minimal contract third-party harness code holds —
// unchanged.
type SampledRunner interface {
	Runner
	RunSampled(w *workload.Workload, pol pipeline.SamplePolicy) pipeline.Result
}

// The simulated micro-architectures a Machine can name.
const (
	ModelInOrder   = "in-order"
	ModelRunahead  = "runahead"
	ModelMultipass = "multipass"
	ModelSLTP      = "sltp"
	ModelICFP      = "icfp"
	ModelOOO       = "ooo"
)

// Models lists the valid Machine.Model values.
var Models = []string{ModelInOrder, ModelRunahead, ModelMultipass, ModelSLTP, ModelICFP, ModelOOO}

// Advance-trigger policy names (pipeline.AdvanceTrigger).
const (
	TriggerL2        = "l2"         // advance under L2 misses only
	TriggerPrimaryD1 = "primary-d1" // also under primary data-cache misses
	TriggerAll       = "all"        // under every miss
)

// Triggers lists the valid Machine.Trigger values.
var Triggers = []string{TriggerL2, TriggerPrimaryD1, TriggerAll}

// Store-buffer design names (icfp.SBMode), iCFP only.
const (
	SBChained = "chained" // address-hash chained indexed buffer (the paper's design)
	SBIdeal   = "ideal"   // idealized fully-associative buffer
	SBLimited = "limited" // indexed buffer with limited forwarding
)

// StoreBuffers lists the valid Machine.StoreBuffer values.
var StoreBuffers = []string{SBChained, SBIdeal, SBLimited}

// Machine declares one simulated machine: a model, the model-level
// policy knobs that are constructor arguments rather than configuration
// fields (advance trigger, store-buffer design, CFP), and named
// overrides of the Table 1 base configuration. The zero Overrides (nil)
// means the paper's default machine of that model.
type Machine struct {
	// Model selects the micro-architecture (see Models).
	Model string `json:"model"`
	// Trigger overrides the model's paper advance-trigger policy.
	// Valid for runahead, multipass, and icfp; empty means the model's
	// own default (runahead l2, multipass primary-d1, icfp all).
	Trigger string `json:"trigger,omitempty"`
	// StoreBuffer selects the iCFP store-buffer design (icfp only;
	// empty means chained).
	StoreBuffer string `json:"store_buffer,omitempty"`
	// CFP enables continual flow on the out-of-order model (ooo only).
	CFP bool `json:"cfp,omitempty"`
	// Overrides names the configuration fields that diverge from the
	// Table 1 base (BaseConfig); nil means none.
	Overrides *Overrides `json:"overrides,omitempty"`
}

// Sampling mode names.
const (
	// ModeFull simulates every instruction in detail (the default).
	ModeFull = "full"
	// ModeSampled runs SMARTS-style interval sampling: detailed
	// simulation inside periodic measurement windows, functional cache
	// and predictor warming in between.
	ModeSampled = "sampled"
)

// SamplingModes lists the valid Sampling.Mode values.
var SamplingModes = []string{ModeFull, ModeSampled}

// Sampling declares a workload's sampling policy. A nil policy (and,
// canonically, an explicit "full" one) means full detailed simulation.
type Sampling struct {
	// Mode is "full" or "sampled".
	Mode string `json:"mode"`
	// Interval is the detailed instructions measured per window
	// (sampled only; >= 1).
	Interval int `json:"interval,omitempty"`
	// Period is the stratum length: one window per Period instructions
	// (sampled only; >= Interval). Period == Interval measures every
	// instruction and is canonically a full run.
	Period int `json:"period,omitempty"`
	// Warmup is the minimum functionally warmed prefix before the first
	// window (sampled only; the machine's own warmup still applies).
	Warmup int `json:"warmup,omitempty"`
	// Ramp is the detailed-warmup length: detailed simulation starts Ramp
	// instructions before each window but only the window itself is
	// measured, hiding warm-state transients functional warming cannot
	// recreate (sampled only; SMARTS "detailed warmup").
	Ramp int `json:"ramp,omitempty"`
	// Seed selects stratified-random window placement within each
	// period; 0 places windows systematically at period starts.
	Seed int64 `json:"seed,omitempty"`
}

// Live reports whether the policy actually changes the simulation — a
// sampled mode whose windows do not provably coalesce into the full
// measured region. Non-live policies dispatch through the ordinary full
// path (and canonicalize away, so they share its cache identity).
func (s *Sampling) Live() bool {
	return s != nil && s.Mode == ModeSampled && !(s.Period == s.Interval && s.Warmup == 0 && s.Ramp == 0)
}

// Policy converts the declaration to the pipeline's sampling policy.
func (s *Sampling) Policy() pipeline.SamplePolicy {
	if s == nil || s.Mode != ModeSampled {
		return pipeline.SamplePolicy{}
	}
	return pipeline.SamplePolicy{Interval: s.Interval, Period: s.Period, Warmup: s.Warmup, Ramp: s.Ramp, Seed: s.Seed}
}

// Fuzz declares a member of the seeded adversarial scenario family
// (workload.Fuzz): the seed plus the four pathology knobs, each an
// integer intensity in 0..100. The (seed, knobs) pair fully determines
// the generated trace, so a fuzz workload is as much a first-class
// cache/store/wire citizen as a named SPEC benchmark. Zero knobs are
// canonically omitted: explicit-zero and absent spellings are the same
// scenario and share one identity.
type Fuzz struct {
	Seed         int64 `json:"seed"`
	SBPressure   int   `json:"sb_pressure,omitempty"`
	BranchOnLoad int   `json:"branch_on_load,omitempty"`
	MissCluster  int   `json:"miss_cluster,omitempty"`
	RallyStarve  int   `json:"rally_starve,omitempty"`
}

// Knobs converts the declaration to the workload generator's knobs.
func (f *Fuzz) Knobs() workload.FuzzKnobs {
	return workload.FuzzKnobs{
		SBPressure:   f.SBPressure,
		BranchOnLoad: f.BranchOnLoad,
		MissCluster:  f.MissCluster,
		RallyStarve:  f.RallyStarve,
	}
}

// Workload declares one workload: exactly one of a SPEC2000-profile
// benchmark (with its total dynamic instruction count, warmup included),
// a Figure 1 micro-scenario, or a fuzz-family scenario, plus an optional
// sampling policy.
type Workload struct {
	// SPEC names a SPEC2000-profile benchmark (workload.AllSPECNames).
	SPEC string `json:"spec,omitempty"`
	// Scenario names a Figure 1 micro-scenario (workload.AllScenarios).
	Scenario string `json:"scenario,omitempty"`
	// Fuzz names a seeded adversarial scenario-family member.
	Fuzz *Fuzz `json:"fuzz,omitempty"`
	// N is the total dynamic instruction count of a SPEC or fuzz
	// workload, warmup included. Scenarios have fixed traces and must
	// leave it 0.
	N int `json:"n,omitempty"`
	// Sampling selects how much of the workload is simulated in detail
	// (SPEC and fuzz only). Nil means full simulation.
	Sampling *Sampling `json:"sampling,omitempty"`
}

// Job is one named simulation: a machine run over a workload. Names
// index result sets and must be unique within a suite; the (machine,
// workload) pair — not the name — is the simulation's cache identity.
type Job struct {
	Name     string   `json:"name,omitempty"`
	Machine  Machine  `json:"machine"`
	Workload Workload `json:"workload"`
}

// Key is the cache identity of a simulation: the canonical encodings of
// its machine and workload specs. Equal keys construct identical
// simulations; the name of a job is not part of it.
type Key struct {
	Machine  string
	Workload string
}

// Key returns the job's cache identity.
func (j Job) Key() Key {
	return Key{Machine: j.Machine.Canonical(), Workload: j.Workload.Canonical()}
}

// Render kinds.
const (
	// RenderTable prints one row per job: cycles, instructions, IPC.
	RenderTable = "table"
	// RenderSpeedup groups jobs by the name prefix before the last "/"
	// and prints each job's percent speedup over its group's baseline
	// job (last name segment == Baseline), plus the geometric mean.
	RenderSpeedup = "speedup"
	// RenderSweep reads job names as "row/col" and prints a grid of
	// percent speedups over the baseline row at the same column.
	RenderSweep = "sweep"
	// RenderBuiltin renders with a registry experiment's own table
	// code; the suite's job names must match that experiment's.
	RenderBuiltin = "builtin"
)

// Render declares how a suite's results become a table.
type Render struct {
	Kind string `json:"kind"`
	// Baseline is the name segment of the per-group (speedup) or
	// per-column (sweep) baseline job; default "base".
	Baseline string `json:"baseline,omitempty"`
	// Builtin names the registry experiment whose renderer to reuse
	// (RenderBuiltin only).
	Builtin string `json:"builtin,omitempty"`
}

// MaxSuiteJobs bounds the jobs of one suite, far above any real one
// (the largest described suite, fig6, holds 750). A job decodes from as
// little as three bytes ("{},") into a 136-byte Job, so without the
// bound a submitted document of empty jobs would cost the decoder about
// a hundred times its size in memory; the decoder fails as soon as a
// jobs array passes it, and Validate enforces it on every suite.
const MaxSuiteJobs = 1 << 16

// Suite is a named list of jobs plus how to render their results — the
// unit a user authors, `-describe` emits, and `-spec` runs.
type Suite struct {
	Name string `json:"name"`
	Desc string `json:"desc,omitempty"`
	// N and Warm record the sample sizes the suite was built for
	// (timed and warmup instructions per sample). The jobs themselves
	// carry their full identity; these exist for renderers and tooling.
	N      int     `json:"n,omitempty"`
	Warm   int     `json:"warm,omitempty"`
	Render *Render `json:"render,omitempty"`
	Jobs   []Job   `json:"jobs"`
}

// SPECWorkload names a generated SPEC2000-profile benchmark with n total
// dynamic instructions (warmup included).
func SPECWorkload(name string, n int) Workload {
	return Workload{SPEC: name, N: n}
}

// ScenarioWorkload names one of the Figure 1 micro-scenarios.
func ScenarioWorkload(sc workload.Scenario) Workload {
	return Workload{Scenario: string(sc)}
}

// FuzzWorkload names the fuzz-family scenario (seed, knobs) with n
// total dynamic instructions (warmup included).
func FuzzWorkload(seed int64, k workload.FuzzKnobs, n int) Workload {
	return Workload{Fuzz: &Fuzz{
		Seed:         seed,
		SBPressure:   k.SBPressure,
		BranchOnLoad: k.BranchOnLoad,
		MissCluster:  k.MissCluster,
		RallyStarve:  k.RallyStarve,
	}, N: n}
}

// Canonical returns the machine's canonical encoding — its identity in
// caches and on the wire. Spellings that construct provably identical
// machines collapse to one encoding: an explicit paper-default policy
// (icfp's "all" trigger and "chained" store buffer; runahead's "l2"
// trigger, which only restates the base configuration) encodes the same
// as leaving the field empty, so e.g. the Figure 8 chained column reuses
// Figure 5's full-iCFP simulations instead of repeating them. Only
// equivalences that hold for every override combination are collapsed —
// multipass's default trigger also forces D$-blocking, so its explicit
// spelling is not the same machine under a block_secondary_d1 override
// and stays distinct.
func (m Machine) Canonical() string {
	var buf [256]byte
	return string(m.collapsed().appendJSON(buf[:0]))
}

// collapsed returns m with its paper-default spellings cleared, the
// value whose JSON is the canonical encoding.
func (m Machine) collapsed() Machine {
	switch m.Model {
	case ModelICFP:
		if m.Trigger == TriggerAll {
			m.Trigger = ""
		}
		if m.StoreBuffer == SBChained {
			m.StoreBuffer = ""
		}
	case ModelRunahead:
		if m.Trigger == TriggerL2 {
			m.Trigger = ""
		}
	}
	return m
}

// Canonical returns the workload's canonical encoding. A sampling policy
// that provably does not change the simulation — explicit "full" mode, or
// a sampled mode whose windows coalesce into the whole measured region
// (period == interval with no extra warmup, for any seed) — encodes the
// same as no policy at all, so such spellings share the full run's cache
// entries and wire identity. Every live policy field, including the
// placement seed, stays part of the identity.
func (w Workload) Canonical() string {
	var buf [128]byte
	return string(w.collapsed().appendJSON(buf[:0]))
}

// collapsed returns w with a non-live sampling policy dropped, the value
// whose JSON is the canonical encoding.
func (w Workload) collapsed() Workload {
	if !w.Sampling.Live() {
		w.Sampling = nil
	}
	return w
}

// Base returns the workload stripped of its sampling policy — the
// identity of the generated trace, which sampling does not affect.
// Sampled and full runs of one benchmark share a Base, and with it the
// harness's in-memory trace and warmed-state checkpoints.
func (w Workload) Base() Workload {
	w.Sampling = nil
	return w
}

// Validate checks the machine against the model vocabulary and the
// override ranges, returning an actionable error for the first problem.
func (m Machine) Validate() error {
	if m.Model == "" {
		return fmt.Errorf("spec: machine has no model (want one of %v)", Models)
	}
	if !slices.Contains(Models, m.Model) {
		return fmt.Errorf("spec: unknown model %q (want one of %v)", m.Model, Models)
	}
	if m.Trigger != "" {
		if !slices.Contains(Triggers, m.Trigger) {
			return fmt.Errorf("spec: unknown trigger %q (want one of %v)", m.Trigger, Triggers)
		}
		switch m.Model {
		case ModelRunahead, ModelMultipass, ModelICFP:
		default:
			return fmt.Errorf("spec: model %q has no advance trigger (trigger applies to %s, %s, %s)",
				m.Model, ModelRunahead, ModelMultipass, ModelICFP)
		}
	}
	if m.StoreBuffer != "" {
		if !slices.Contains(StoreBuffers, m.StoreBuffer) {
			return fmt.Errorf("spec: unknown store_buffer %q (want one of %v)", m.StoreBuffer, StoreBuffers)
		}
		if m.Model != ModelICFP {
			return fmt.Errorf("spec: store_buffer applies only to model %q, not %q", ModelICFP, m.Model)
		}
	}
	if m.CFP && m.Model != ModelOOO {
		return fmt.Errorf("spec: cfp applies only to model %q, not %q", ModelOOO, m.Model)
	}
	if m.Overrides != nil {
		if err := m.Overrides.Validate(); err != nil {
			return err
		}
		if m.Overrides.ROBEntries != nil && m.Model != ModelOOO {
			return fmt.Errorf("spec: rob_entries applies only to model %q, not %q", ModelOOO, m.Model)
		}
	}
	return nil
}

// maxInsts bounds workload and warmup instruction counts at roughly the
// paper's full scale: a spec arriving over the network must not be able
// to pin a worker's cores for hours on one key. It is the generator's
// own documented bound.
const maxInsts = workload.MaxInsts

// Validate checks the workload names exactly one known benchmark,
// scenario, or fuzz-family member with a sane instruction count. It is
// the panic barrier in front of workload generation: everything the
// generator would reject (out-of-range n, out-of-range fuzz knobs) is
// an error here, so a user-authored suite reaching a daemon can never
// panic it.
func (w Workload) Validate() error {
	kinds := 0
	for _, set := range []bool{w.SPEC != "", w.Scenario != "", w.Fuzz != nil} {
		if set {
			kinds++
		}
	}
	if kinds > 1 {
		return fmt.Errorf("spec: workload names %d of SPEC/scenario/fuzz; want exactly one", kinds)
	}
	switch {
	case w.SPEC != "":
		if !slices.Contains(workload.AllSPECNames, w.SPEC) {
			return fmt.Errorf("spec: unknown SPEC benchmark %q (want one of %v)", w.SPEC, workload.AllSPECNames)
		}
		if w.N < 1 || w.N > maxInsts {
			return fmt.Errorf("spec: SPEC workload %q has n=%d, want 1..%d (total dynamic instructions, warmup included)", w.SPEC, w.N, maxInsts)
		}
	case w.Scenario != "":
		if !slices.Contains(workload.AllScenarios, workload.Scenario(w.Scenario)) {
			return fmt.Errorf("spec: unknown scenario %q (want one of %v)", w.Scenario, workload.AllScenarios)
		}
		if w.N != 0 {
			return fmt.Errorf("spec: scenario %q has fixed length; n=%d must be omitted", w.Scenario, w.N)
		}
	case w.Fuzz != nil:
		if err := w.Fuzz.Knobs().Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if w.N < 1 || w.N > maxInsts {
			return fmt.Errorf("spec: fuzz workload seed=%d has n=%d, want 1..%d (total dynamic instructions, warmup included)", w.Fuzz.Seed, w.N, maxInsts)
		}
	default:
		return fmt.Errorf("spec: workload names neither a SPEC benchmark, a scenario, nor a fuzz scenario")
	}
	if s := w.Sampling; s != nil {
		if w.Scenario != "" {
			return fmt.Errorf("spec: sampling applies only to SPEC and fuzz workloads, not scenario %q", w.Scenario)
		}
		switch s.Mode {
		case ModeFull:
			if s.Interval != 0 || s.Period != 0 || s.Warmup != 0 || s.Ramp != 0 || s.Seed != 0 {
				return fmt.Errorf("spec: sampling mode %q takes no interval/period/warmup/ramp/seed", ModeFull)
			}
		case ModeSampled:
			if s.Interval < 1 || s.Interval > maxInsts {
				return fmt.Errorf("spec: sampling interval %d, want 1..%d", s.Interval, maxInsts)
			}
			if s.Period < s.Interval || s.Period > maxInsts {
				return fmt.Errorf("spec: sampling period %d, want interval (%d)..%d", s.Period, s.Interval, maxInsts)
			}
			if s.Warmup < 0 || s.Warmup > maxInsts {
				return fmt.Errorf("spec: sampling warmup %d, want 0..%d", s.Warmup, maxInsts)
			}
			if s.Ramp < 0 || s.Ramp > maxInsts {
				return fmt.Errorf("spec: sampling ramp %d, want 0..%d", s.Ramp, maxInsts)
			}
			if s.Warmup+s.Interval > w.N {
				return fmt.Errorf("spec: sampling warmup %d + interval %d exceeds workload n=%d", s.Warmup, s.Interval, w.N)
			}
		default:
			return fmt.Errorf("spec: unknown sampling mode %q (want one of %v)", s.Mode, SamplingModes)
		}
	}
	return nil
}

// New generates the declared workload. The spec must be valid
// (Validate is the panic barrier: every input it accepts generates).
func (w Workload) New() *workload.Workload {
	switch {
	case w.Scenario != "":
		return workload.NewScenario(workload.Scenario(w.Scenario))
	case w.Fuzz != nil:
		return workload.Fuzz(w.Fuzz.Seed, w.Fuzz.Knobs(), w.N)
	}
	return workload.SPEC(w.SPEC, w.N)
}

// Validate checks the job's machine and workload, with the job's name as
// context, and that the pair measures something: a SPEC or fuzz
// workload must run past the machine's warmup, or no instruction is
// timed and every per-instruction statistic is NaN.
func (j Job) Validate() error {
	if err := j.Machine.Validate(); err != nil {
		return fmt.Errorf("job %q: %w", j.Name, err)
	}
	if err := j.Workload.Validate(); err != nil {
		return fmt.Errorf("job %q: %w", j.Name, err)
	}
	if j.Workload.Scenario == "" {
		if warm := j.Machine.warmup(); warm >= j.Workload.N {
			return fmt.Errorf("spec: job %q: machine warmup %d leaves nothing of the n=%d-instruction workload to measure (want warmup < n)", j.Name, warm, j.Workload.N)
		}
	}
	return nil
}

// renderKinds lists the valid Render.Kind values.
var renderKinds = []string{RenderTable, RenderSpeedup, RenderSweep, RenderBuiltin}

// Validate checks the render declaration.
func (r Render) Validate() error {
	if !slices.Contains(renderKinds, r.Kind) {
		return fmt.Errorf("spec: unknown render kind %q (want one of %v)", r.Kind, renderKinds)
	}
	if r.Kind == RenderBuiltin && r.Builtin == "" {
		return fmt.Errorf("spec: render kind %q needs a builtin experiment name", RenderBuiltin)
	}
	if r.Kind != RenderBuiltin && r.Builtin != "" {
		return fmt.Errorf("spec: render kind %q does not take a builtin name (%q)", r.Kind, r.Builtin)
	}
	if r.Baseline != "" && r.Kind != RenderSpeedup && r.Kind != RenderSweep {
		return fmt.Errorf("spec: render kind %q does not take a baseline (%q)", r.Kind, r.Baseline)
	}
	return nil
}

// Validate checks the whole suite: a name, valid sample sizes, a valid
// render, and uniquely named valid jobs.
func (s Suite) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: suite has no name")
	}
	if len(s.Jobs) > MaxSuiteJobs {
		return fmt.Errorf("spec: suite %q has %d jobs; want at most %d", s.Name, len(s.Jobs), MaxSuiteJobs)
	}
	if s.N < 0 || s.N > maxInsts || s.Warm < 0 || s.Warm > maxInsts {
		return fmt.Errorf("spec: suite %q has n=%d, warm=%d; want 0..%d each", s.Name, s.N, s.Warm, maxInsts)
	}
	if s.Render != nil {
		if err := s.Render.Validate(); err != nil {
			return fmt.Errorf("suite %q: %w", s.Name, err)
		}
	}
	seen := make(map[string]bool, len(s.Jobs))
	for i, j := range s.Jobs {
		if j.Name == "" {
			return fmt.Errorf("spec: suite %q job %d has no name", s.Name, i)
		}
		if seen[j.Name] {
			return fmt.Errorf("spec: suite %q has two jobs named %q", s.Name, j.Name)
		}
		seen[j.Name] = true
		if err := j.Validate(); err != nil {
			return fmt.Errorf("suite %q: %w", s.Name, err)
		}
	}
	return nil
}

// Marshal renders the suite as indented JSON with a trailing newline.
// The encoding is deterministic: Marshal ∘ UnmarshalSuite ∘ Marshal is
// the identity on bytes.
func (s Suite) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: encoding suite %q: %w", s.Name, err)
	}
	return append(b, '\n'), nil
}

// UnmarshalSuite parses and validates a suite. Decoding is strict:
// unknown fields anywhere in the document (a typo'd "trigerr") and
// trailing garbage are errors, and the parsed suite must validate. The
// document is read in one pass without reflection, and it is accepted
// and decoded exactly as encoding/json's Decoder with
// DisallowUnknownFields would (keys also match case-insensitively, a
// repeated key decodes again over the earlier value).
func UnmarshalSuite(data []byte) (Suite, error) {
	s, err := decodeSuite(data)
	if err != nil {
		return Suite{}, fmt.Errorf("spec: decoding suite: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Suite{}, err
	}
	return s, nil
}
