// Package registry names the experiments of the paper's evaluation —
// every figure, table, and sensitivity study of §3/§5 — as declarative
// spec.Suite values and runs them on the exp harness. Each experiment's
// suite marshals losslessly to JSON (`cmd/experiments -describe`), and a
// suite run from JSON (`-spec`) renders byte-identically to the
// compiled-in path. All experiments selected for one Run share a
// memoization cache, so common work (above all the in-order baseline
// runs that every speedup figure divides by) simulates exactly once no
// matter how many experiments need it.
package registry

import (
	"fmt"
	"io"
	"slices"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
)

// Params are the knobs shared by every experiment: the machine
// configuration (whose WarmupInsts is the per-sample warmup) and the
// number of timed instructions per sample. The configuration must be
// spec-expressible (the base machine plus named overrides), or suite
// building fails. A non-nil Sampling attaches that policy to every SPEC
// workload an experiment builds (the cmd/experiments -sample flag
// family), turning the whole selection into a sampled run.
type Params struct {
	Cfg      pipeline.Config
	N        int
	Sampling *spec.Sampling
}

// DefaultSampling returns the sampling policy used when a sampled run
// does not pin its own: one measurement window per twelfth of the
// workload, each window 2% of its stratum with a detailed ramp three
// windows long ahead of it — twelve strata give the 95% CI honest
// width, the 8% detailed fraction keeps the ≥10x speedup margin, and
// the ramp hides the warm-state transients functional warming cannot
// recreate (the acceptance-pinned shape; see docs/ARCHITECTURE.md).
// total is the workload's full dynamic length, warmup included.
// Workloads too short to sample get a degenerate policy that
// canonicalizes away into the full run.
func DefaultSampling(total int) *spec.Sampling {
	period := total / 12
	interval := period / 50
	if interval < 1 {
		return &spec.Sampling{Mode: spec.ModeSampled, Interval: 1, Period: 1}
	}
	return &spec.Sampling{Mode: spec.ModeSampled, Interval: interval, Period: period, Ramp: 3 * interval, Seed: 1}
}

// DefaultParams mirrors the cmd/experiments defaults: the Table 1
// machine, scaled-down samples.
func DefaultParams() Params {
	cfg := spec.BaseConfig()
	return Params{Cfg: cfg, N: 400_000}
}

// Experiment is one named entry of the evaluation. Suite declares the
// simulations it needs as a serializable spec (possibly with zero jobs,
// for analytic experiments like the area model); Print renders its table
// from the completed results.
type Experiment struct {
	Name  string
	Desc  string
	Suite func(p Params) (spec.Suite, error)
	Print func(w io.Writer, p Params, rs *exp.ResultSet)
	// Extra excludes the experiment from -all (it still runs when named
	// explicitly): the sampled long-workload variants live here, so the
	// -all report and its golden stay exactly the paper's evaluation.
	Extra bool
}

// experiments is the registry in the paper's presentation order, built
// once: every lookup shares its entries, which nothing changes after
// init (their closures only read what they captured), so concurrent
// renders may share them too.
var experiments = []Experiment{
	table1Exp(),
	fig5Exp(),
	fig5sExp(),
	table2Exp(),
	fig6Exp(),
	fig7Exp(),
	fig8Exp(),
	hopsExp(),
	poisonExp(),
	areaExp(),
	oooExp(),
	ablateExp(),
	fuzzExp(),
}

// All lists the registry in the paper's presentation order. The slice
// is the caller's own copy.
func All() []Experiment { return slices.Clone(experiments) }

// Names lists the experiment names in registry order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// DefaultNames lists the -all selection: every experiment except the
// Extra ones (the sampled long-workload variants, which run only when
// named). This is the set the committed -all golden pins.
func DefaultNames() []string {
	var names []string
	for _, e := range experiments {
		if !e.Extra {
			names = append(names, e.Name)
		}
	}
	return names
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Describe returns the named experiment as a self-contained suite: the
// exact jobs a direct run would simulate, plus a builtin render that
// reproduces the experiment's own table. The result marshals losslessly
// (spec.Suite.Marshal) and running it back through ReportSuite renders
// byte-identically to the compiled-in path.
func Describe(name string, p Params) (spec.Suite, error) {
	e, ok := Lookup(name)
	if !ok {
		return spec.Suite{}, fmt.Errorf("registry: unknown experiment %q (have %v)", name, Names())
	}
	return e.Suite(p)
}

// suiteBuilder accumulates one experiment's suite, converting each job's
// concrete configuration into overrides of the spec base. The first
// error sticks and surfaces from done().
type suiteBuilder struct {
	s        spec.Suite
	sampling *spec.Sampling
	err      error
}

// newSuite starts the experiment's suite at the given parameters, with a
// builtin render pointing back at the experiment's own table code.
func newSuite(e Experiment, p Params) *suiteBuilder {
	return &suiteBuilder{
		s: spec.Suite{
			Name:   e.Name,
			Desc:   e.Desc,
			N:      p.N,
			Warm:   p.Cfg.WarmupInsts,
			Render: &spec.Render{Kind: spec.RenderBuiltin, Builtin: e.Name},
		},
		sampling: p.Sampling,
	}
}

// add appends one job: machine m configured by cfg (whose divergence
// from the spec base rides in the overrides; the machine's own overrides
// win where both set a knob) over the workload. A suite-level sampling
// policy attaches to every SPEC or fuzz workload that does not pin its
// own (scenarios have fixed tiny traces and never sample).
func (b *suiteBuilder) add(name string, m spec.Machine, cfg pipeline.Config, wl spec.Workload) {
	if b.err != nil {
		return
	}
	ov, err := spec.OverridesFor(cfg)
	if err != nil {
		b.err = fmt.Errorf("registry: suite %q job %q: %w", b.s.Name, name, err)
		return
	}
	m.Overrides = spec.Merge(m.Overrides, ov)
	if b.sampling != nil && (wl.SPEC != "" || wl.Fuzz != nil) && wl.Sampling == nil {
		s := *b.sampling
		wl.Sampling = &s
	}
	b.s.Jobs = append(b.s.Jobs, spec.Job{Name: name, Machine: m, Workload: wl})
}

// done returns the built suite or the first accumulated error.
func (b *suiteBuilder) done() (spec.Suite, error) {
	if b.err != nil {
		return spec.Suite{}, b.err
	}
	return b.s, nil
}

// collect resolves the experiment names (deduplicated, order-preserving)
// into suites and gathers their combined job list with per-experiment
// counts — the shared front half of Run and Plan.
func collect(names []string, p Params) (selected []Experiment, jobs []exp.Job, counts []int, err error) {
	picked := make(map[string]bool, len(names))
	for _, name := range names {
		e, ok := Lookup(name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("registry: unknown experiment %q (have %v)", name, Names())
		}
		if !picked[name] {
			picked[name] = true
			selected = append(selected, e)
		}
	}
	counts = make([]int, len(selected))
	for i, e := range selected {
		s, err := e.Suite(p)
		if err != nil {
			return nil, nil, nil, err
		}
		counts[i] = len(s.Jobs)
		jobs = append(jobs, s.Jobs...)
	}
	return selected, jobs, counts, nil
}

// Plan returns the deduplicated simulation jobs of the named
// experiments, in first-appearance order: exactly the keys a Report of
// them needs. Store-backed runs look these keys up before a run, so
// stored results are not simulated again.
func Plan(names []string, p Params) ([]spec.Job, error) {
	_, jobs, _, err := collect(names, p)
	if err != nil {
		return nil, err
	}
	plan, err := exp.Plan(jobs)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return plan, nil
}

// Run executes the named experiments and returns their result sets
// keyed by experiment name. All selected experiments' jobs go through
// one worker-pool run — job names are experiment-prefixed, so they never
// collide — which both keeps the pool saturated across experiment
// boundaries and memoizes shared work (above all the in-order baselines)
// across experiments. Options (most usefully exp.Parallelism) are
// forwarded to the underlying exp.Run.
func Run(names []string, p Params, opts ...exp.Option) (map[string]*exp.ResultSet, error) {
	selected, jobs, counts, err := collect(names, p)
	if err != nil {
		return nil, err
	}
	rs, err := exp.Run(jobs, opts...)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}

	out := make(map[string]*exp.ResultSet, len(selected))
	off := 0
	for i, e := range selected {
		out[e.Name] = rs.Slice(off, off+counts[i])
		off += counts[i]
	}
	return out, nil
}

// Report runs the named experiments and renders each one's table to w in
// the order given. Rendering is serial and driven purely by the result
// sets, so the output is byte-identical at every parallelism setting.
func Report(w io.Writer, names []string, p Params, opts ...exp.Option) (map[string]*exp.ResultSet, error) {
	sets, err := Run(names, p, opts...)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		e, _ := Lookup(name)
		if e.Print != nil {
			e.Print(w, p, sets[name])
		}
	}
	return sets, nil
}

// ReportSuite runs one suite — built-in (Describe) or user-authored
// (spec.UnmarshalSuite) — and renders it to w according to its Render
// declaration (RenderSuite). A described builtin suite renders
// byte-identically to running the experiment directly.
func ReportSuite(w io.Writer, s spec.Suite, opts ...exp.Option) (*exp.ResultSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rs, err := exp.Run(s.Jobs, opts...)
	if err != nil {
		return nil, fmt.Errorf("registry: suite %q: %w", s.Name, err)
	}
	if err := RenderSuite(w, s, rs); err != nil {
		return nil, err
	}
	return rs, nil
}
