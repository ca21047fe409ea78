package pipeline

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/stats"
	"icfp/internal/workload"
)

// WindowLoop is a core's detailed simulation of one window. Window runs
// trace indexes [start, end) from the warmed hier and pred at cycle 0,
// calls m.Cross exactly once, when its loop first reaches meas (never,
// if the loop jumps from before meas to end), and returns its last
// completion cycle and its event counters — the Result fields
// SubCounters subtracts, plus any distribution summaries the core
// reports as-is. Everything else about the window (planning, warm state,
// MLP, the crossing arithmetic, rates, the zero guard, combining) is the
// Core's.
type WindowLoop interface {
	Window(tr *isa.Trace, hier *mem.Hierarchy, pred *bpred.Predictor, m *Meter, start, meas, end int) (finish int64, counters Result)
}

// Core is the measured-window path every micro-architecture shares: a
// core's Machine embeds one, built over its window loop, and gets Run
// and RunSampled from it.
type Core struct {
	cfg  *Config
	loop WindowLoop
	mlp  bool
}

// NewCore returns the shared Run/RunSampled path over loop, planning
// windows under *cfg. mlp says whether the window results report D$ and
// L2 memory-level parallelism.
func NewCore(cfg *Config, mlp bool, loop WindowLoop) Core {
	return Core{cfg: cfg, loop: loop, mlp: mlp}
}

// Run simulates the workload to completion and reports the result.
func (c Core) Run(w *workload.Workload) Result {
	return c.RunSampled(w, SamplePolicy{})
}

// RunSampled simulates the workload under the given sampling policy:
// the detailed loop runs only inside the policy's measurement windows,
// with functional warming in between. The zero policy is a full run.
func (c Core) RunSampled(w *workload.Workload, pol SamplePolicy) Result {
	m := new(Meter) // one per run: its MLP edge lists carry over between windows
	return RunWindowed(w, c.cfg, pol,
		func(hier *mem.Hierarchy, pred *bpred.Predictor, start, meas, end int) Result {
			m.reset(hier, meas, end, c.mlp)
			finish, counters := c.loop.Window(w.Trace, hier, pred, m, start, meas, end)
			return m.result(finish, counters)
		})
}

// Meter is one window's measurement bookkeeping: the MLP trackers fed
// by the hierarchy's miss observer, and the counter, cycle and
// hierarchy-statistics snapshot taken when detailed execution crosses
// into the measured range. MLP observes the whole detailed range, ramp
// included: it is a distribution summary, not an extensive counter, and
// the ramp's samples come from the same machine state.
type Meter struct {
	hier  *mem.Hierarchy
	insts int64 // measured instructions, end - meas

	dTrack, l2Track stats.MLPTracker

	base int64 // finish cycle at the crossing
	res0 Result
	hs0  mem.Stats
}

// reset makes m the meter of the window [meas, end) on hier, installing
// hier's miss observer when mlp is set. The MLP trackers keep their
// edge lists' capacity from earlier windows.
func (m *Meter) reset(hier *mem.Hierarchy, meas, end int, mlp bool) {
	m.dTrack.Reset()
	m.l2Track.Reset()
	*m = Meter{hier: hier, insts: int64(end - meas), dTrack: m.dTrack, l2Track: m.l2Track}
	if mlp {
		hier.MissObserver = m.observe
	}
}

func (m *Meter) observe(start, done int64, l2 bool) {
	m.dTrack.Add(start, done)
	if l2 {
		m.l2Track.Add(start, done)
	}
}

// Cross snapshots the loop's finish cycle and counters, and the
// hierarchy's statistics, as the loop first reaches the measured range.
// The window result reports everything as a difference from them; a
// full run crosses at its first instruction, where all are zero.
func (m *Meter) Cross(finish int64, counters Result) {
	m.base, m.res0, m.hs0 = finish, counters, m.hier.Stats
}

// result builds the window's Result from the loop's final finish cycle
// and counters. A window that measures no instruction reports the zero
// Result: every per-instruction rate would be 0/0.
func (m *Meter) result(finish int64, counters Result) Result {
	if m.insts == 0 {
		return Result{}
	}
	ki := float64(m.insts) / 1000
	hs := m.hier.Stats
	res := SubCounters(counters, m.res0)
	res.Cycles = finish - m.base
	res.Insts = m.insts
	res.DCacheMissPerKI = float64(hs.DataL1Misses-m.hs0.DataL1Misses) / ki
	res.L2MissPerKI = float64(hs.DataL2Misses-m.hs0.DataL2Misses) / ki
	res.DCacheMLP = m.dTrack.MLP()
	res.L2MLP = m.l2Track.MLP()
	res.RallyPerKI = float64(res.RallyInsts) / ki
	return res
}
