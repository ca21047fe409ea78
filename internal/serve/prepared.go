package serve

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"unsafe"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
)

// A prepared suite is a submitted document decoded, validated and
// planned: everything a submission derives from its bytes alone, before
// the store is asked for anything. Clients resubmit the same documents
// (a described experiment's document is the same bytes on every run of
// it), so the server keeps the prepared suites of the documents it last
// served and answers a byte-identical resubmission without decoding or
// planning it again.
//
// A prepared suite also keeps the output it last rendered and the
// results it was rendered from. A render is a pure function of the
// suite and its results, so a later submission whose freshly resolved
// results equal those bit for bit (sameResult) replies with the kept
// output; any other renders afresh and replaces the pair. The kept
// output therefore never answers for results it was not rendered from:
// the store, the in-flight table and the backend still resolve every
// plan entry of every submission.
type prepared struct {
	doc   string // the document, aliasing the request body: the memo's key
	suite spec.Suite
	// first, keys and at are exp.PlanValidated's plan of suite.Jobs.
	first, at []int
	keys      []exp.Key
	last      *rendered // guarded by the memo's mu; nil until a render is kept
}

// rendered is one render of a prepared suite: the results, one per plan
// entry, and the report rendered from them. Neither changes once made.
type rendered struct {
	res []pipeline.Result
	out string
}

// size is what p holds in memory by the memo's count: its document, its
// kept output and its kept results. The caller holds the memo's mu.
func (p *prepared) size() int {
	n := len(p.doc)
	if p.last != nil {
		n += len(p.last.out) + len(p.last.res)*int(unsafe.Sizeof(pipeline.Result{}))
	}
	return n
}

// The prepared-suite memo's bounds: the documents it holds (the -all
// experiments' 11 documents come to 339 KB) and the bytes it counts for
// them, each document's own plus its kept output's and results'. A
// prepared suite takes a few times what it counts in memory (the
// decoded jobs alias the document; the plan adds the canonical keys), so
// the memo stays within a few tens of megabytes however many distinct
// documents arrive; an insert that would pass either bound empties it
// first.
const (
	maxPrepared      = 64
	maxPreparedBytes = 4 << 20
)

// preparedSuites is the memo: document bytes → prepared suite.
type preparedSuites struct {
	mu    sync.Mutex
	m     map[string]*prepared
	bytes int // total size of the prepared suites in m
}

// prepare returns the prepared suite of doc, a request body the caller
// hands over: the suite aliases it (spec.UnmarshalSuite), and so may the
// memo, so nothing may write doc afterwards. A document that fails to
// decode or validate returns the decoder's error and is not kept.
func (ps *preparedSuites) prepare(doc []byte) (*prepared, error) {
	ps.mu.Lock()
	p, ok := ps.m[string(doc)]
	ps.mu.Unlock()
	if ok {
		return p, nil
	}
	suite, err := spec.UnmarshalSuite(doc)
	if err != nil {
		return nil, err
	}
	// The suite validated on decode: plan it without validating again.
	p = &prepared{doc: unsafe.String(unsafe.SliceData(doc), len(doc)), suite: suite}
	p.first, p.keys, p.at = exp.PlanValidated(suite.Jobs)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if q, ok := ps.m[p.doc]; ok { // another submission of doc got here first
		return q, nil
	}
	ps.addLocked(p)
	return p, nil
}

// addLocked puts p, which is not in the memo, into it, emptying the memo
// first if p would pass either bound; a p over the byte bound on its own
// is left out. The caller holds mu.
func (ps *preparedSuites) addLocked(p *prepared) {
	size := p.size()
	if size > maxPreparedBytes {
		return
	}
	if len(ps.m) == maxPrepared || ps.bytes+size > maxPreparedBytes {
		ps.m, ps.bytes = nil, 0
	}
	if ps.m == nil {
		ps.m = make(map[string]*prepared)
	}
	ps.m[p.doc] = p
	ps.bytes += size
}

// render returns the report of p's suite over res, its plan's results:
// the output p keeps when res equals the results it was rendered from,
// else a fresh render, which p then keeps in place of the old pair. A
// render error is returned and nothing is kept.
func (ps *preparedSuites) render(p *prepared, res []pipeline.Result) (string, error) {
	ps.mu.Lock()
	last := p.last
	ps.mu.Unlock()
	if last != nil && slices.EqualFunc(last.res, res, sameResult) {
		return last.out, nil
	}
	var out bytes.Buffer
	if err := registry.RenderSuite(&out, p.suite, exp.Collect(p.suite.Jobs, p.at, res)); err != nil {
		return "", err
	}
	r := &rendered{res: res, out: out.String()}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	// Only a suite in the memo keeps its render: no later submission
	// finds one that is not. Re-adding it counts the new pair against the
	// bounds.
	if ps.m[p.doc] == p {
		delete(ps.m, p.doc)
		ps.bytes -= p.size()
		p.last = r
		ps.addLocked(p)
	}
	return r.out, nil
}

// sameResult reports whether a and b are the same result: the same name
// and the same bits in every numeric field. Floats compare by their bits,
// so −0 and +0 (which render differently) never match and a NaN matches
// only the same NaN. A field added to pipeline.Result needs its line here
// (TestSameResultSeesEveryField).
func sameResult(a, b pipeline.Result) bool {
	f := math.Float64bits
	return a.Name == b.Name &&
		a.Cycles == b.Cycles &&
		a.Insts == b.Insts &&
		f(a.DCacheMissPerKI) == f(b.DCacheMissPerKI) &&
		f(a.L2MissPerKI) == f(b.L2MissPerKI) &&
		f(a.DCacheMLP) == f(b.DCacheMLP) &&
		f(a.L2MLP) == f(b.L2MLP) &&
		a.BranchMispredicts == b.BranchMispredicts &&
		a.Advances == b.Advances &&
		a.AdvanceInsts == b.AdvanceInsts &&
		a.RallyInsts == b.RallyInsts &&
		a.RallyPasses == b.RallyPasses &&
		f(a.RallyPerKI) == f(b.RallyPerKI) &&
		a.SliceOverflows == b.SliceOverflows &&
		a.SBOverflows == b.SBOverflows &&
		a.PoisonAddrObs == b.PoisonAddrObs &&
		a.Squashes == b.Squashes &&
		a.SBForwards == b.SBForwards &&
		f(a.SBExtraHops) == f(b.SBExtraHops) &&
		f(a.SBHopsAtLeast) == f(b.SBHopsAtLeast) &&
		a.SampleIntervals == b.SampleIntervals &&
		f(a.SampleCPICI95) == f(b.SampleCPICI95)
}
