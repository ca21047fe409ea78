package serve

import (
	"sync"
	"unsafe"

	"icfp/internal/exp"
	"icfp/internal/spec"
)

// A prepared suite is a submitted document decoded, validated and
// planned: everything a submission derives from its bytes alone, before
// the store is asked for anything. Clients resubmit the same documents
// (a described experiment's document is the same bytes on every run of
// it), so the server keeps the prepared suites of the documents it last
// served and answers a byte-identical resubmission without decoding or
// planning it again. A prepared suite holds no results, so it never goes
// stale: the store still resolves every plan entry of every submission.
type prepared struct {
	suite spec.Suite
	// first, keys and at are exp.PlanValidated's plan of suite.Jobs.
	first, at []int
	keys      []exp.Key
}

// The prepared-suite memo's bounds: the documents it holds (the -all
// experiments' 11 documents come to 339 KB) and their total size. A
// prepared suite takes a few times its document's size in memory (the
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
	bytes int // total length of the documents in m
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
	p = &prepared{suite: suite}
	p.first, p.keys, p.at = exp.PlanValidated(suite.Jobs)
	if len(doc) > maxPreparedBytes {
		return p, nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.m) == maxPrepared || ps.bytes+len(doc) > maxPreparedBytes {
		ps.m, ps.bytes = nil, 0
	}
	if ps.m == nil {
		ps.m = make(map[string]*prepared)
	}
	if _, ok := ps.m[string(doc)]; !ok { // another submission of doc may have got here first
		ps.m[unsafe.String(unsafe.SliceData(doc), len(doc))] = p
		ps.bytes += len(doc)
	}
	return p, nil
}
