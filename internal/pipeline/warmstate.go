package pipeline

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"icfp/internal/bpred"
	"icfp/internal/cache"
	"icfp/internal/mem"
	"icfp/internal/workload"
)

// WarmState returns a private hierarchy under hierCfg and a predictor
// under bpredCfg, functionally warmed over trace indexes [0, upto) of w
// — the machine-independent warmed state a detailed window starts from.
//
// The warmed state is a checkpoint shared through the workload itself.
// Functional warming reads and writes only the three caches' tags and
// the predictor, so all machines whose cache geometries and predictor
// configuration agree share one warm-state series per workload, whatever
// their latencies, MSHRs, bus or stream buffers: a latency sweep warms
// once. The series warms each prefix once — extending incrementally from
// the longest previously warmed prefix, so a sampled run's k window
// starts cost one pass over the trace, not k — and hands out exact
// copies under the caller's full hierarchy configuration, every
// non-cache piece of state as mem.New builds it. Exactness of the copies
// (a run started from one is byte-identical to a run started from
// directly warmed state) is pinned by the warm-state equivalence tests
// and, transitively, by the committed -all golden.
func WarmState(w *workload.Workload, hierCfg mem.Config, bpredCfg bpred.Config, upto int) (*mem.Hierarchy, *bpred.Predictor) {
	return seriesFor(w, hierCfg, bpredCfg).at(hierCfg, upto)
}

// seriesFor returns w's warm-state series for the configurations.
func seriesFor(w *workload.Workload, hierCfg mem.Config, bpredCfg bpred.Config) *warmSeries {
	return w.SharedState(warmKey(hierCfg, bpredCfg), func() any {
		return &warmSeries{w: w, hierCfg: hierCfg, bpredCfg: bpredCfg}
	}).(*warmSeries)
}

// warmKey is the shared-state key of a warm series: machines agree on
// warmed state exactly when they agree on what warming touches — the
// three cache geometries and the predictor configuration. Struct JSON
// marshalling has a fixed field order, so the encoding is deterministic.
func warmKey(hierCfg mem.Config, bpredCfg bpred.Config) string {
	b, err := json.Marshal(struct {
		L1I, L1D, L2 cache.Config
		B            bpred.Config
	}{hierCfg.L1I, hierCfg.L1D, hierCfg.L2, bpredCfg})
	if err != nil {
		panic(fmt.Sprintf("pipeline: warm-state key encoding: %v", err))
	}
	return "pipeline.warm:" + string(b)
}

// warmSeries holds warmed-state masters for one (workload, cache
// geometries, predictor config) triple at increasing trace prefixes.
type warmSeries struct {
	w        *workload.Workload
	hierCfg  mem.Config // the first requester's; masters use only its cache geometries
	bpredCfg bpred.Config

	mu      sync.Mutex
	masters []warmMaster // ascending by upto
	// free holds window buffers handed back by put: hand-outs copy a
	// master into one of them and clone only when none is free.
	free []warmBuf
}

// warmBuf is one hierarchy and predictor pair.
type warmBuf struct {
	hier *mem.Hierarchy
	pred *bpred.Predictor
}

// warmMaster is the warmed state after functionally replaying [0, upto).
// Masters are immutable once stored; callers always receive copies.
type warmMaster struct {
	upto int
	warmBuf
}

// at returns a copy, under hierCfg, of the master warmed to upto,
// creating the master — by extending a clone of the longest existing
// shorter one — if needed. Window starts ascend within a run and
// coincide across machines running the same policy, so in the steady
// state every call either copies an existing master or extends the
// newest one by a single inter-window gap.
func (s *warmSeries) at(hierCfg mem.Config, upto int) (*mem.Hierarchy, *bpred.Predictor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Largest master with .upto <= upto.
	i := sort.Search(len(s.masters), func(i int) bool { return s.masters[i].upto > upto }) - 1
	if i < 0 || s.masters[i].upto != upto {
		// Masters are kept for the workload's lifetime, so a new one is
		// always a fresh allocation; the free list serves hand-outs.
		var b warmBuf
		lo := 0
		if i >= 0 {
			m := s.masters[i]
			b = warmBuf{mem.CloneCaches(s.hierCfg, m.hier), m.pred.Clone()}
			lo = m.upto
		} else {
			b = warmBuf{mem.New(s.hierCfg), bpred.New(s.bpredCfg)}
			if s.w.Prewarm != nil {
				s.w.Prewarm(b.hier)
			}
		}
		WarmRange(b.hier, b.pred, s.w.Trace, lo, upto)
		i++
		s.masters = slices.Insert(s.masters, i, warmMaster{upto: upto, warmBuf: b})
	}
	b := s.take(hierCfg, s.masters[i].warmBuf)
	return b.hier, b.pred
}

// take returns a copy of src under hierCfg, written into a free buffer
// when there is one and cloned otherwise. The caller holds s.mu.
func (s *warmSeries) take(hierCfg mem.Config, src warmBuf) warmBuf {
	n := len(s.free)
	if n == 0 {
		return warmBuf{mem.CloneCaches(hierCfg, src.hier), src.pred.Clone()}
	}
	b := s.free[n-1]
	s.free = s.free[:n-1]
	b.hier.CopyCaches(hierCfg, src.hier)
	b.pred.CopyFrom(src.pred)
	return b
}

// put hands a buffer from at back to the series for reuse. The caller
// must hold no reference to it afterwards.
func (s *warmSeries) put(hier *mem.Hierarchy, pred *bpred.Predictor) {
	s.mu.Lock()
	s.free = append(s.free, warmBuf{hier, pred})
	s.mu.Unlock()
}
