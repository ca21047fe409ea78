package pipeline

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/workload"
)

// TestWarmStateIncrementalEqualsDirect pins the checkpoint store's core
// soundness claim: warmed state handed out by the series — built by
// cloning a shorter master and extending it — is indistinguishable from
// state warmed directly over the full prefix in one pass. The witness is
// behavioural: replaying the identical instruction suffix into both
// states must produce identical cache and predictor counters (warming is
// deterministic, so any divergence in cache contents, LRU order, victim
// buffers, or predictor tables would surface as a counter difference).
func TestWarmStateIncrementalEqualsDirect(t *testing.T) {
	const n, mid, upto = 20_000, 5_000, 15_000
	w := workload.SPEC("mcf", n)
	cfg := DefaultConfig()

	// Direct: one pass over [0, upto).
	dh := mem.New(cfg.Hier)
	if w.Prewarm != nil {
		w.Prewarm(dh)
	}
	dp := bpred.New(cfg.Bpred)
	WarmRange(dh, dp, w.Trace, 0, upto)

	// Series: a master at mid first, then upto — forcing the incremental
	// clone-and-extend path.
	if h, p := WarmState(w, cfg.Hier, cfg.Bpred, mid); h == nil || p == nil {
		t.Fatal("nil warm state")
	}
	sh, sp := WarmState(w, cfg.Hier, cfg.Bpred, upto)

	// Replay the identical suffix into both and compare every counter.
	WarmRange(dh, dp, w.Trace, upto, n)
	WarmRange(sh, sp, w.Trace, upto, n)

	type counters struct {
		ih, im, dhits, dm, vh, l2h, l2m uint64
		lookups, mispredicts            uint64
	}
	snap := func(h *mem.Hierarchy, p *bpred.Predictor) counters {
		return counters{
			ih: h.ICache.Hits, im: h.ICache.Misses,
			dhits: h.DCache.Hits, dm: h.DCache.Misses, vh: h.DCache.VictimHits,
			l2h: h.L2.Hits, l2m: h.L2.Misses,
			lookups: p.Lookups, mispredicts: p.Mispredicts,
		}
	}
	if d, s := snap(dh, dp), snap(sh, sp); d != s {
		t.Fatalf("incremental warm state diverged from direct warming:\ndirect %+v\nseries %+v", d, s)
	}
}

// TestWarmStateMastersAreImmutable pins that handed-out state is a
// private clone: mutating it must not corrupt the master other callers
// receive.
func TestWarmStateMastersAreImmutable(t *testing.T) {
	const n, upto = 10_000, 8_000
	w := workload.SPEC("gzip", n)
	cfg := DefaultConfig()

	h1, p1 := WarmState(w, cfg.Hier, cfg.Bpred, upto)
	// Trash the first clone.
	for a := uint64(1 << 30); a < 1<<30+1<<20; a += 64 {
		h1.DCache.Lookup(a, true)
		h1.DCache.Insert(a, true)
		p1.Update(a, a%3 == 0)
	}
	h2, p2 := WarmState(w, cfg.Hier, cfg.Bpred, upto)
	if h2.DCache.Hits == h1.DCache.Hits && h2.DCache.Misses == h1.DCache.Misses {
		t.Fatal("second clone shows the first clone's mutations")
	}
	// A clean clone replayed forward must match direct warming, proving
	// the master did not absorb the first clone's writes.
	dh := mem.New(cfg.Hier)
	if w.Prewarm != nil {
		w.Prewarm(dh)
	}
	dp := bpred.New(cfg.Bpred)
	WarmRange(dh, dp, w.Trace, 0, upto)
	WarmRange(dh, dp, w.Trace, upto, n)
	WarmRange(h2, p2, w.Trace, upto, n)
	if dh.DCache.Hits != h2.DCache.Hits || dh.DCache.Misses != h2.DCache.Misses ||
		dp.Lookups != p2.Lookups || dp.Mispredicts != p2.Mispredicts {
		t.Fatal("master corrupted by a previous clone's mutations")
	}
}

// timedWindow is a minimal detailed window for tests: it replays
// [start, end) through the hierarchy's timed access paths and the
// predictor, so it reads and writes every piece of state a model's
// window does — cache tags, bus and MSHR clocks, in-flight fills, stream
// buffers, miss filter, statistics — and reports what it saw, several
// hierarchy counters carried in otherwise unused Result fields.
func timedWindow(tr *isa.Trace, seen *[]*mem.Hierarchy) func(*mem.Hierarchy, *bpred.Predictor, int, int, int) Result {
	return func(h *mem.Hierarchy, p *bpred.Predictor, start, meas, end int) Result {
		if seen != nil {
			*seen = append(*seen, h)
		}
		var res Result
		h.MissObserver = func(s, d int64, l2 bool) {
			if l2 {
				res.Advances++
			}
		}
		var cycle int64
		for i := start; i < end; i++ {
			in := tr.At(i)
			cycle = max(cycle+1, h.Inst(cycle, in.PC).Done)
			switch in.Op {
			case isa.OpLoad, isa.OpStore:
				// Misses overlap without limit but the MSHRs': the
				// window never waits on data.
				h.Data(cycle, in.Addr, in.Op == isa.OpStore)
			case isa.OpBranch:
				if p.Predict(in.PC) != in.Taken {
					cycle += 8
				}
				p.Update(in.PC, in.Taken)
			}
		}
		res.Cycles, res.Insts = cycle, int64(end-meas)
		res.BranchMispredicts = p.Mispredicts
		st := h.Stats
		res.RallyInsts, res.RallyPasses = st.DataL1Misses, st.DataL2Misses
		res.SliceOverflows, res.SBOverflows = st.StreamHits, st.Prefetches
		res.PoisonAddrObs, res.Squashes = st.Writebacks, st.MSHRMergeHits
		res.SBForwards = st.MSHRStallCycles
		return res
	}
}

// freshWindowed is RunWindowed without recycling: every window starts
// from a newly cloned hand-out, since nothing is ever put back.
func freshWindowed(w *workload.Workload, cfg *Config, pol SamplePolicy) Result {
	var parts []Result
	run := timedWindow(w.Trace, nil)
	for _, win := range pol.Windows(min(cfg.WarmupInsts, w.Trace.Len()), w.Trace.Len()) {
		start := max(win.Start-pol.Ramp, 0)
		h, p := WarmState(w, cfg.Hier, cfg.Bpred, start)
		parts = append(parts, run(h, p, start, win.Start, win.End))
	}
	return CombineWindows(w.Name, parts)
}

// TestRecycledWindowsEqualFreshClones pins that recycling window buffers
// is invisible: a sampled run whose windows reuse one hierarchy and
// predictor — each copied over from the next master, with the non-cache
// state the previous window dirtied reset — equals a run in which every
// window gets a fresh clone.
func TestRecycledWindowsEqualFreshClones(t *testing.T) {
	const n = 40_000
	cfg := DefaultConfig()
	cfg.WarmupInsts = 2_000
	cfg.Hier.NumMSHRs = 4 // make MSHR stalls, and so MSHR state, likely
	// Each window's ramp overlaps the previous window's tail, so state a
	// recycled buffer failed to reset (a stream buffer still primed for
	// those lines, say) would be hit again.
	pol := SamplePolicy{Interval: 1_000, Period: 1_500, Ramp: 1_000}

	// mcf chases pointers (MSHR and fill state); swim streams (stream
	// buffers and prefetches).
	for _, name := range []string{"mcf", "swim"} {
		var seen []*mem.Hierarchy
		w := workload.SPEC(name, n)
		recycled := RunWindowed(w, &cfg, pol, timedWindow(w.Trace, &seen))
		fresh := freshWindowed(workload.SPEC(name, n), &cfg, pol)
		if recycled != fresh {
			t.Fatalf("%s: recycled run differs from fresh clones:\nrecycled %+v\nfresh    %+v", name, recycled, fresh)
		}
		if len(seen) < 3 {
			t.Fatalf("%s: only %d windows: the policy does not exercise recycling", name, len(seen))
		}
		for i, h := range seen[1:] {
			if h != seen[0] {
				t.Fatalf("%s: window %d got a new hierarchy: a serial run should recycle its one buffer", name, i+1)
			}
		}
		if recycled.SBOverflows+recycled.SBForwards == 0 {
			t.Fatalf("%s: no prefetches or MSHR stalls (%+v): the windows do not dirty non-cache state", name, recycled)
		}
	}
}

// TestRecycledSeriesEqualsFresh pins warm state built in the buffers a
// released workload's series gave up. Over a pool (workload.Spares), a
// second workload's masters and hand-outs are built in the first
// workload's buffers, the first master emptied and the rest copied into:
// none is allocated while one is left. Each equals its counterpart in a
// series with no pool, caches and predictor field for field, and so
// does what a timed window simulates from it.
func TestRecycledSeriesEqualsFresh(t *testing.T) {
	const n = 40_000
	cfg := DefaultConfig()
	cfg.WarmupInsts = 2_000
	cfg.Hier.NumMSHRs = 4
	pol := SamplePolicy{Interval: 1_000, Period: 4_000, Ramp: 1_000}

	pool := new(workload.Spares)
	first := pool.Generate(workload.Profiles("mcf"), n, workload.DefaultSeed)
	RunWindowed(first, &cfg, pol, timedWindow(first.Trace, nil))
	released := map[*mem.Hierarchy]bool{}
	s := seriesFor(first, cfg.Hier, cfg.Bpred)
	for _, m := range s.masters {
		released[m.hier] = true
	}
	for _, b := range s.free {
		released[b.hier] = true
	}
	pool.Release(first)

	w := pool.Generate(workload.Profiles("swim"), n, workload.DefaultSeed)
	fresh := workload.SPEC("swim", n)
	var seen []*mem.Hierarchy
	if got, want := RunWindowed(w, &cfg, pol, timedWindow(w.Trace, &seen)), freshWindowed(fresh, &cfg, pol); got != want {
		t.Fatalf("run over recycled buffers differs from fresh clones:\nrecycled %+v\nfresh    %+v", got, want)
	}
	for i, h := range seen {
		if !released[h] {
			t.Errorf("window %d's hand-out is not a released buffer", i)
		}
	}
	rs, fs := seriesFor(w, cfg.Hier, cfg.Bpred), seriesFor(fresh, cfg.Hier, cfg.Bpred)
	if len(rs.masters) != len(fs.masters) || len(rs.masters) < 3 {
		t.Fatalf("%d masters over recycled buffers, %d fresh: want equal, and at least 3", len(rs.masters), len(fs.masters))
	}
	same := func(what string, h, fh *mem.Hierarchy, p, fp *bpred.Predictor) {
		t.Helper()
		for _, c := range [][2]any{{h.ICache, fh.ICache}, {h.DCache, fh.DCache}, {h.L2, fh.L2}, {p, fp}} {
			if !reflect.DeepEqual(c[0], c[1]) {
				t.Fatalf("%s differs from its fresh counterpart in a %T", what, c[0])
			}
		}
	}
	for i, m := range rs.masters {
		f := fs.masters[i]
		if m.upto != f.upto {
			t.Fatalf("master %d warmed to %d, fresh to %d", i, m.upto, f.upto)
		}
		if !released[m.hier] {
			t.Errorf("master %d was allocated while released buffers were left", i)
		}
		same(fmt.Sprintf("master %d", i), m.hier, f.hier, m.pred, f.pred)
		h, p := WarmState(w, cfg.Hier, cfg.Bpred, m.upto)
		fh, fp := WarmState(fresh, cfg.Hier, cfg.Bpred, m.upto)
		same(fmt.Sprintf("hand-out at %d", m.upto), h, fh, p, fp)
		end := min(m.upto+5_000, n)
		if got, want := timedWindow(w.Trace, nil)(h, p, m.upto, m.upto, end), timedWindow(fresh.Trace, nil)(fh, fp, m.upto, m.upto, end); got != want {
			t.Fatalf("hand-out at %d simulates differently from a fresh clone:\nrecycled %+v\nfresh    %+v", m.upto, got, want)
		}
	}
}

// TestWarmSeriesSharedAcrossTimingConfigs pins the series key: machines
// that differ only in what warming never touches — latencies, MSHRs,
// stream buffers — share one series, and a hand-out under one
// configuration from masters warmed under another is exactly what direct
// warming under it gives: the same caches and predictor, every other
// piece of state as mem.New builds it.
func TestWarmSeriesSharedAcrossTimingConfigs(t *testing.T) {
	const n, upto = 20_000, 12_000
	a := DefaultConfig()
	b := a
	b.Hier.L2HitLat, b.Hier.MemLat, b.Hier.NumMSHRs, b.Hier.StreamBufs = 35, 250, 8, 2

	w := workload.SPEC("gzip", n)
	if seriesFor(w, a.Hier, a.Bpred) != seriesFor(w, b.Hier, b.Bpred) {
		t.Fatal("timing-only configuration differences split the warm series")
	}
	WarmState(w, a.Hier, a.Bpred, upto) // masters warmed under a
	hb, pb := WarmState(w, b.Hier, b.Bpred, upto)
	if hb.Config() != b.Hier {
		t.Fatalf("hand-out carries config %+v, want the caller's %+v", hb.Config(), b.Hier)
	}

	dh := mem.New(b.Hier)
	if w.Prewarm != nil {
		w.Prewarm(dh)
	}
	dp := bpred.New(b.Bpred)
	WarmRange(dh, dp, w.Trace, 0, upto)

	run := timedWindow(w.Trace, nil)
	if got, want := run(hb, pb, upto, upto, n), run(dh, dp, upto, upto, n); got != want {
		t.Fatalf("hand-out under b diverged from direct warming under b:\nhand-out %+v\ndirect   %+v", got, want)
	}
}

// TestWarmSeriesConcurrentRuns drives one workload's series from several
// goroutines at once, as pool workers simulating different machines over
// a shared workload do: masters, hand-outs and the free list must stay
// consistent (run it under -race), and every run must equal a serial one.
func TestWarmSeriesConcurrentRuns(t *testing.T) {
	const n = 30_000
	cfg := DefaultConfig()
	cfg.WarmupInsts = 2_000
	pol := SamplePolicy{Interval: 1_000, Period: 5_000, Ramp: 300}
	want := freshWindowed(workload.SPEC("mcf", n), &cfg, pol)

	w := workload.SPEC("mcf", n)
	got := make([]Result, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = RunWindowed(w, &cfg, pol, timedWindow(w.Trace, nil))
		}()
	}
	wg.Wait()
	for i, r := range got {
		if r != want {
			t.Errorf("concurrent run %d differs from a serial run:\ngot  %+v\nwant %+v", i, r, want)
		}
	}
}
