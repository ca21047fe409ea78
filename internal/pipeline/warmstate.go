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
	key := warmKey(hierCfg, bpredCfg)
	return w.SharedState(key, func() any {
		return &warmSeries{w: w, key: key, hierCfg: hierCfg, bpredCfg: bpredCfg}
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
//
// Masters and hand-outs are built in spare buffers when there are any:
// the first master is a spare emptied (mem.Hierarchy.Reset,
// bpred.Predictor.Reset), every later one and every hand-out a copy into
// a spare. Only without a spare is a buffer allocated, by New or a
// clone. A hand-out first reuses one handed back (put). Beyond those, a
// workload generated over a pool (workload.Spares) offers the buffers of
// series under the same key on workloads released to it: a released
// series gives up its masters and free hand-outs (Recycle). The key
// fixes the cache geometries and the predictor configuration, so every
// spare has the shape the series needs.
type warmSeries struct {
	w        *workload.Workload
	key      string     // the series' shared-state key (warmKey)
	hierCfg  mem.Config // the first requester's; masters use only its cache geometries
	bpredCfg bpred.Config

	mu      sync.Mutex
	masters []warmMaster // ascending by upto
	// free holds window buffers handed back by put.
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
		var b warmBuf
		lo := 0
		if i >= 0 {
			m := s.masters[i]
			b = copyOf(s.hierCfg, m.warmBuf, s.spare())
			lo = m.upto
		} else {
			if b = s.spare(); b.hier != nil {
				b.hier.Reset(s.hierCfg)
				b.pred.Reset()
			} else {
				b = warmBuf{mem.New(s.hierCfg), bpred.New(s.bpredCfg)}
			}
			if s.w.Prewarm != nil {
				s.w.Prewarm(b.hier)
			}
		}
		WarmRange(b.hier, b.pred, s.w.Trace, lo, upto)
		i++
		s.masters = slices.Insert(s.masters, i, warmMaster{upto: upto, warmBuf: b})
	}
	var dst warmBuf
	if n := len(s.free); n > 0 {
		dst = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		dst = s.spare()
	}
	b := copyOf(hierCfg, s.masters[i].warmBuf, dst)
	return b.hier, b.pred
}

// spare returns a buffer a released workload's series under the same key
// gave up, or no buffer (nil pointers) when there is none.
func (s *warmSeries) spare() warmBuf {
	b, _ := s.w.Spare(s.key).(warmBuf)
	return b
}

// copyOf returns a copy of src under hierCfg, written into dst when it
// is a buffer and cloned when it is not.
func copyOf(hierCfg mem.Config, src, dst warmBuf) warmBuf {
	if dst.hier == nil {
		return warmBuf{mem.CloneCaches(hierCfg, src.hier), src.pred.Clone()}
	}
	dst.hier.CopyCaches(hierCfg, src.hier)
	dst.pred.CopyFrom(src.pred)
	return dst
}

// put hands a buffer from at back to the series for reuse. The caller
// must hold no reference to it afterwards.
func (s *warmSeries) put(hier *mem.Hierarchy, pred *bpred.Predictor) {
	s.mu.Lock()
	s.free = append(s.free, warmBuf{hier, pred})
	s.mu.Unlock()
}

// Recycle gives up the series' buffers, its masters' and its free
// hand-outs', for a later workload's series under the same key to copy
// into (workload.Recycler). The series' workload is released: nothing
// asks the series for state again.
func (s *warmSeries) Recycle() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	bufs := make([]any, 0, len(s.masters)+len(s.free))
	for _, m := range s.masters {
		bufs = append(bufs, m.warmBuf)
	}
	for _, b := range s.free {
		bufs = append(bufs, b)
	}
	s.masters, s.free = nil, nil
	return bufs
}
