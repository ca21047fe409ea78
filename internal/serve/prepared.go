package serve

import (
	"bytes"
	"slices"
	"sync"
	"unsafe"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/store"
)

// A prepared suite is a submitted document decoded, validated and
// planned: everything a submission derives from its bytes alone, before
// the store is asked for anything. Clients resubmit the same documents
// (a described experiment's document is the same bytes on every run of
// it), so the server keeps the prepared suites of the documents it last
// served and answers a byte-identical resubmission without decoding or
// planning it again.
//
// A prepared suite also keeps its last reply answered wholly from the
// store, with the store resolution it was rendered from. An indexed
// store entry's result never changes its bits, and a render is a pure
// function of the suite and its results, so while that resolution
// renews (store.Resolution.Revalidate: none of its entries has been
// dropped) the kept reply is the reply a fresh resolution would render,
// byte for byte, and a resubmission writes it and does nothing else.
// Any other submission resolves its plan key by key and replaces the
// kept reply with its own, or clears it when it was not all hits.
type prepared struct {
	doc   string // the document, aliasing the request body: the memo's key
	suite spec.Suite
	// first, keys and at are exp.PlanValidated's plan of suite.Jobs.
	first, at []int
	keys      []exp.Key
	last      *answer // guarded by the memo's mu; nil until a reply is kept
}

// answer is an all-hit reply of a prepared suite: the resolution it was
// rendered from and its encoded events (plan, output, done). Neither
// changes once made.
type answer struct {
	res   *store.Resolution
	reply []byte
}

// render returns the report of p's suite over res, its plan's results.
// Every plan entry has its result, so rendering simulates nothing, and
// the bytes match a local run of the suite by construction: the same
// renderer over the same results.
func (p *prepared) render(res []pipeline.Result) (string, error) {
	var out bytes.Buffer
	if err := registry.RenderSuite(&out, p.suite, exp.Collect(p.suite.Jobs, p.at, res)); err != nil {
		return "", err
	}
	return out.String(), nil
}

// size is what p holds in memory by the memo's count: its document, its
// kept reply and the kept resolution's entries. The caller holds the
// memo's mu.
func (p *prepared) size() int {
	n := len(p.doc)
	if p.last != nil {
		n += len(p.last.reply) + p.last.res.Bytes()
	}
	return n
}

// The prepared-suite memo's bounds: the documents it holds (the -all
// experiments' 11 documents come to 339 KB) and the bytes it counts for
// them, each document's own plus its kept reply's and resolution's. A
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
	// spare holds request bodies that found their prepared suite, so no
	// suite aliases them, for later bodies to be read into (body); they
	// come to spareBytes of capacity, at most maxPreparedBytes.
	spare      [][]byte
	spareBytes int
}

// body returns a buffer of length n to read a request body into: the
// smallest spare with room when there is one, else a new buffer. The
// buffer goes to prepare.
func (ps *preparedSuites) body(n int) []byte {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	best := -1
	for i, b := range ps.spare {
		if cap(b) >= n && (best < 0 || cap(b) < cap(ps.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, n)
	}
	b := ps.spare[best]
	ps.spare = slices.Delete(ps.spare, best, best+1)
	ps.spareBytes -= cap(b)
	return b[:n]
}

// prepare returns the prepared suite of doc, a request body the caller
// hands over and must not use again: a resubmission's body goes back to
// the spares (body), and any other's is aliased by its suite
// (spec.UnmarshalSuite) and may be by the memo, so nothing writes it
// again. A document that fails to decode or validate returns the
// decoder's error and is not kept.
func (ps *preparedSuites) prepare(doc []byte) (*prepared, error) {
	ps.mu.Lock()
	p, ok := ps.m[string(doc)]
	if ok && ps.spareBytes+cap(doc) <= maxPreparedBytes {
		ps.spare = append(ps.spare, doc)
		ps.spareBytes += cap(doc)
	}
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

// kept returns the reply p keeps, nil when it keeps none.
func (ps *preparedSuites) kept(p *prepared) *answer {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return p.last
}

// keep makes a, which may be nil, the reply p keeps. Only a suite in the
// memo keeps a reply: no later submission finds one that is not.
// Re-adding it counts the new reply against the bounds.
func (ps *preparedSuites) keep(p *prepared, a *answer) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.m[p.doc] != p || p.last == a {
		return
	}
	delete(ps.m, p.doc)
	ps.bytes -= p.size()
	p.last = a
	ps.addLocked(p)
}
