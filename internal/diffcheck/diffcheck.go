// Package diffcheck is the cross-model differential oracle: it runs
// every simulated model over a set of fuzz-family scenarios and checks
// the structural invariants that must hold between the models no matter
// what the workload does — retired-instruction counts agree, IPC never
// exceeds machine width, the blocking in-order core is the performance
// floor, the idealized store buffer dominates the limited one, and the
// sampled estimator lands within its own reported confidence interval
// of the full run. Each invariant is a relation *between* simulations,
// so the oracle needs no golden numbers to catch a broken model: a bug
// that shifts one machine shows up as a violated relation against the
// others. cmd/fuzzgate drives it over the committed adversarial corpus
// (workload.FuzzCorpus) and additionally pins the per-model stats
// against a golden file.
package diffcheck

import (
	"fmt"

	"icfp/internal/exp"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// Model labels, in report order. Full-simulation labels first; the
// sampled runs re-measure two of the machines under interval sampling.
const (
	InOrder     = "in-order"
	Runahead    = "runahead"
	Multipass   = "multipass"
	SLTP        = "sltp"
	ICFP        = "icfp"
	ICFPIdeal   = "icfp/ideal"
	ICFPLimited = "icfp/limited"
	OOO         = "ooo"
)

// FloorFactor bounds every enhanced model's cycles relative to the
// blocking in-order core: the enhanced machines hide miss latency, so
// on no workload may one fall behind in-order by more than the slack a
// pathological advance policy can cost (the bound TestFuzzAllMachines in
// internal/sim pins for every sim.PaperMachines entry).
const FloorFactor = 1.3

// idealTolerance is the slack allowed on the ideal-dominates-limited
// store-buffer invariant: the idealized fully-associative buffer must
// not lose to limited forwarding by more than this fraction. The slack
// is real behaviour, not noise: on poisoned-store scenarios limited's
// forwarding stalls sideline exactly the loads whose idealized forwards
// would propagate poison, so limited occasionally dodges recovery work
// ideal pays for (observed up to ~6% on the corpus). Gross breakage of
// either buffer still lands far outside the slack.
const idealTolerance = 0.08

// chainedTolerance bounds the chained buffer against the ideal one in
// *both* directions — the paper's Figure 8 claim that address-hash
// chaining performs within a whisker of full associativity. Observed
// corpus-wide divergence is under 0.3%, so 2% flags any real change in
// the chained design while never firing on today's behaviour.
const chainedTolerance = 0.02

// Stat is one model's pinned result on one scenario. Sampled entries
// additionally carry the estimator's interval count and the 95%
// confidence half-width of CPI across windows — simulation and window
// placement are deterministic, so these are stable goldens, not noise.
type Stat struct {
	Model     string  `json:"model"`
	Cycles    int64   `json:"cycles"`
	Insts     int64   `json:"insts"`
	Intervals int     `json:"intervals,omitempty"`
	CPICI95   float64 `json:"cpi_ci95,omitempty"`
}

// CPI returns the stat's cycles per instruction.
func (s Stat) CPI() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Insts)
}

// Report is the oracle's verdict on one scenario: every model's stats
// (full models in label order, then the sampled runs) and the list of
// violated invariants, empty when the scenario passes.
type Report struct {
	Scenario   string   `json:"scenario"`
	Stats      []Stat   `json:"stats"`
	Violations []string `json:"-"`
}

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Options configure a corpus check.
type Options struct {
	// N is the total dynamic instructions per scenario, warmup included
	// (default 60 000); Warm is the per-sample machine warmup (default
	// 10 000).
	N    int
	Warm int
	// Perturb corrupts the named model's collected stats (cycles
	// inflated, one phantom instruction) before invariant checking —
	// the oracle's self-test hook. A perturbed model must be caught by
	// at least one invariant; cmd/fuzzgate -perturb and CI assert that
	// it is.
	Perturb string
	// Cache, when non-nil, is shared with the exp harness so corpus
	// runs memoize against earlier work.
	Cache *exp.Cache
	// Parallelism is forwarded to exp.Run (0 means GOMAXPROCS).
	Parallelism int
}

// labeled pairs a report label with the machine spec it names.
type labeled struct {
	label string
	m     spec.Machine
}

// fullMachines returns the full-simulation model set, every machine at
// the given per-sample warmup.
func fullMachines(warm int) []labeled {
	ov := &spec.Overrides{Warmup: spec.Int(warm)}
	return []labeled{
		{InOrder, spec.Machine{Model: spec.ModelInOrder, Overrides: ov}},
		{Runahead, spec.Machine{Model: spec.ModelRunahead, Overrides: ov}},
		{Multipass, spec.Machine{Model: spec.ModelMultipass, Overrides: ov}},
		{SLTP, spec.Machine{Model: spec.ModelSLTP, Overrides: ov}},
		{ICFP, spec.Machine{Model: spec.ModelICFP, Overrides: ov}},
		{ICFPIdeal, spec.Machine{Model: spec.ModelICFP, StoreBuffer: spec.SBIdeal, Overrides: ov}},
		{ICFPLimited, spec.Machine{Model: spec.ModelICFP, StoreBuffer: spec.SBLimited, Overrides: ov}},
		{OOO, spec.Machine{Model: spec.ModelOOO, Overrides: ov}},
	}
}

// sampledLabels lists the machines re-run under interval sampling: the
// floor model and the paper's machine. Their labels gain a "/sampled"
// suffix in reports.
func sampledLabels() []string { return []string{InOrder, ICFP} }

// sampling returns the oracle's interval-sampling policy for an n-inst
// scenario: twelve windows of 2% of their stratum with a three-window
// detailed ramp (the registry's default shape, pinned here so the
// golden does not drift if the registry retunes its default).
func sampling(n int) *spec.Sampling {
	period := n / 12
	interval := period / 50
	if interval < 1 {
		return &spec.Sampling{Mode: spec.ModeSampled, Interval: 1, Period: 1}
	}
	return &spec.Sampling{Mode: spec.ModeSampled, Interval: interval, Period: period, Ramp: 3 * interval, Seed: 1}
}

// CheckAll runs the oracle over every scenario: one exp.Run carrying
// all (scenario, model) jobs — so the worker pool stays saturated
// across scenario boundaries and shared work memoizes — then per
// scenario the invariant checks. The error covers harness problems
// (invalid specs, canceled runs); invariant violations are data, in
// the reports.
func CheckAll(cases []workload.FuzzCase, o Options) ([]Report, error) {
	if o.N == 0 {
		o.N = 60_000
	}
	if o.Warm == 0 {
		o.Warm = 10_000
	}
	machines := fullMachines(o.Warm)
	perScenario := len(machines) + len(sampledLabels())

	var jobs []exp.Job
	for _, c := range cases {
		wl := spec.FuzzWorkload(c.Seed, c.Knobs, o.N)
		for _, m := range machines {
			jobs = append(jobs, exp.Job{Name: c.Name() + "/" + m.label, Machine: m.m, Workload: wl})
		}
		swl := wl
		swl.Sampling = sampling(o.N)
		for _, m := range machines {
			for _, sl := range sampledLabels() {
				if m.label == sl {
					jobs = append(jobs, exp.Job{Name: c.Name() + "/" + m.label + "/sampled", Machine: m.m, Workload: swl})
				}
			}
		}
	}

	opts := []exp.Option{exp.Parallelism(o.Parallelism)}
	if o.Cache != nil {
		opts = append(opts, exp.WithCache(o.Cache))
	}
	rs, err := exp.Run(jobs, opts...)
	if err != nil {
		return nil, fmt.Errorf("diffcheck: %w", err)
	}

	width := spec.BaseConfig().Width
	reports := make([]Report, 0, len(cases))
	for i, c := range cases {
		rep := Report{Scenario: c.Name()}
		for j := i * perScenario; j < (i+1)*perScenario; j++ {
			name, r := rs.At(j)
			label := name[len(c.Name())+1:]
			st := Stat{
				Model:     label,
				Cycles:    r.Cycles,
				Insts:     r.Insts,
				Intervals: r.SampleIntervals,
				CPICI95:   r.SampleCPICI95,
			}
			if o.Perturb != "" && (label == o.Perturb || label == o.Perturb+"/sampled") {
				st.Cycles *= 7
				st.Insts++
			}
			rep.Stats = append(rep.Stats, st)
		}
		rep.Violations = check(rep, len(machines), width)
		reports = append(reports, rep)
	}
	return reports, nil
}

// check evaluates every invariant over one scenario's stats: the first
// nFull stats are the full models in fullMachines order, the rest are
// the sampled re-runs.
func check(rep Report, nFull, width int) []string {
	var v []string
	bad := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	byLabel := make(map[string]Stat, len(rep.Stats))
	for _, s := range rep.Stats {
		byLabel[s.Model] = s
	}

	// Sanity: every run terminates with positive cycles and does not
	// retire faster than the machine width allows.
	for _, s := range rep.Stats {
		if s.Cycles <= 0 || s.Insts <= 0 {
			bad("%s: non-positive cycles %d / insts %d", s.Model, s.Cycles, s.Insts)
			continue
		}
		if ipc := float64(s.Insts) / float64(s.Cycles); ipc > float64(width) {
			bad("%s: IPC %.2f exceeds machine width %d", s.Model, ipc, width)
		}
	}

	// Retired-instruction agreement: every full model executes the same
	// program, so committed counts must match exactly.
	base := rep.Stats[0]
	for _, s := range rep.Stats[1:nFull] {
		if s.Insts != base.Insts {
			bad("%s: retired %d instructions, %s retired %d", s.Model, s.Insts, base.Model, base.Insts)
		}
	}

	// Performance floor: the blocking in-order core is the worst machine
	// modulo the bounded slack a pathological advance policy can cost.
	inorder := byLabel[InOrder]
	if inorder.Cycles > 0 {
		for _, s := range rep.Stats[1:nFull] {
			if float64(s.Cycles) > FloorFactor*float64(inorder.Cycles) {
				bad("%s: %d cycles, more than %.1fx the in-order %d", s.Model, s.Cycles, FloorFactor, inorder.Cycles)
			}
		}
	}

	// Store-buffer dominance: the idealized fully-associative buffer
	// must not lose to limited forwarding beyond the documented slack.
	ideal, limited := byLabel[ICFPIdeal], byLabel[ICFPLimited]
	if limited.Cycles > 0 && float64(ideal.Cycles) > (1+idealTolerance)*float64(limited.Cycles) {
		bad("icfp/ideal: %d cycles, slower than icfp/limited %d beyond %.0f%% tolerance",
			ideal.Cycles, limited.Cycles, idealTolerance*100)
	}

	// Figure 8: the chained buffer performs within a whisker of the
	// ideal one, in both directions.
	chained := byLabel[ICFP]
	if ideal.Cycles > 0 && chained.Cycles > 0 {
		if ratio := float64(chained.Cycles) / float64(ideal.Cycles); ratio > 1+chainedTolerance || ratio < 1-chainedTolerance {
			bad("icfp: %d cycles, diverges from icfp/ideal %d beyond %.0f%% (chained must track ideal)",
				chained.Cycles, ideal.Cycles, chainedTolerance*100)
		}
	}

	// Sampled-vs-full: the estimator must land within its own reported
	// confidence interval of the full run (plus a small absolute floor
	// for scenarios whose windows agree so well the CI collapses).
	for _, s := range rep.Stats[nFull:] {
		fullLabel := s.Model[:len(s.Model)-len("/sampled")]
		full := byLabel[fullLabel]
		if full.Insts == 0 || s.Insts == 0 {
			continue // already reported above
		}
		if s.Intervals <= 1 {
			bad("%s: %d sampling intervals, want several", s.Model, s.Intervals)
			continue
		}
		bound := 4*s.CPICI95 + 0.05*full.CPI()
		if diff := s.CPI() - full.CPI(); diff > bound || -diff > bound {
			bad("%s: sampled CPI %.4f vs full %.4f, off by %.4f > bound %.4f (CI95 %.4f)",
				s.Model, s.CPI(), full.CPI(), diff, bound, s.CPICI95)
		}
	}
	return v
}
