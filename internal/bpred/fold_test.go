package bpred

import (
	"math/rand"
	"reflect"
	"testing"
)

// foldHistory compresses histLen bits of global history into bits wide
// from scratch: the reference the incrementally kept folds must equal.
func foldHistory(hist uint64, histLen, bits int) uint64 {
	if histLen > 64 {
		histLen = 64
	}
	var masked uint64
	if histLen == 64 {
		masked = hist
	} else {
		masked = hist & ((1 << uint(histLen)) - 1)
	}
	var folded uint64
	for masked != 0 {
		folded ^= masked & ((1 << uint(bits)) - 1)
		masked >>= uint(bits)
	}
	return folded
}

// refold returns every table's index and tag folds of p's history,
// computed afresh.
func (p *Predictor) refold() (idx, tag [maxTagged]uint64) {
	for t, n := range p.cfg.HistLens {
		idx[t] = foldHistory(p.hist, n, p.cfg.TaggedBits)
		tag[t] = foldHistory(p.hist, n, tagBits)
	}
	return idx, tag
}

// TestIncrementalFoldsMatchRefold pins the circular-shift fold update:
// after every Update over random outcomes, each table's index and tag
// folds equal refold()'s from-scratch folds. The history lengths
// include 1, each fold width (the index's and the tag's), lengths just
// past them, and 64 and beyond, where hist itself is the window.
func TestIncrementalFoldsMatchRefold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TaggedBits = 11
	for _, lens := range [][]int{
		{1, tagBits, cfg.TaggedBits, 64},
		{2, tagBits + 1, cfg.TaggedBits + 1, 63, 65, 70, 22, 33},
	} {
		cfg.HistLens = lens
		p := New(cfg)
		rng := rand.New(rand.NewSource(int64(len(lens))))
		for i := range 20_000 {
			p.Update(uint64(rng.Intn(1<<12))<<2, rng.Intn(2) == 0)
			idx, tag := p.refold()
			if p.idxFold != idx || p.tagFold != tag {
				t.Fatalf("HistLens %v, after update %d: folds idx %v tag %v, refold idx %v tag %v",
					lens, i, p.idxFold, p.tagFold, idx, tag)
			}
		}
	}
}

// refPredictor is the direction predictor as it was before history folds
// were cached: every lookup folds the global history afresh. It is kept
// here only as the reference the cached-fold predictor must match.
type refPredictor struct {
	cfg                  Config
	bimodal              []int8
	tagged               [][]taggedEntry
	hist                 uint64
	Lookups, Mispredicts uint64
}

func newRef(cfg Config) *refPredictor {
	r := &refPredictor{cfg: cfg, bimodal: make([]int8, 1<<cfg.BimodalBits)}
	for i := range r.bimodal {
		r.bimodal[i] = 2
	}
	r.tagged = make([][]taggedEntry, len(cfg.HistLens))
	for i := range r.tagged {
		r.tagged[i] = make([]taggedEntry, 1<<cfg.TaggedBits)
	}
	return r
}

func (r *refPredictor) taggedIndex(table int, pc uint64) (idx uint64, tag uint16) {
	bits := r.cfg.TaggedBits
	h := foldHistory(r.hist, r.cfg.HistLens[table], bits)
	idx = ((pc >> 2) ^ h ^ (pc >> uint(bits+2))) & ((1 << uint(bits)) - 1)
	t := foldHistory(r.hist, r.cfg.HistLens[table], 9)
	tag = uint16(((pc >> 2) ^ (t << 1)) & 0x1FF)
	return idx, tag
}

func (r *refPredictor) bimodalIndex(pc uint64) uint64 {
	return (pc >> 2) & ((1 << uint(r.cfg.BimodalBits)) - 1)
}

func (r *refPredictor) predictInternal(pc uint64) bool {
	for t := len(r.tagged) - 1; t >= 0; t-- {
		idx, tag := r.taggedIndex(t, pc)
		e := &r.tagged[t][idx]
		if e.valid && e.tag == tag {
			return e.ctr >= 0
		}
	}
	return r.bimodal[r.bimodalIndex(pc)] >= 2
}

func (r *refPredictor) Predict(pc uint64) bool {
	r.Lookups++
	return r.predictInternal(pc)
}

func (r *refPredictor) Update(pc uint64, taken bool) {
	pred := r.predictInternal(pc)
	correct := pred == taken
	provider := -1
	for t := len(r.tagged) - 1; t >= 0; t-- {
		idx, tag := r.taggedIndex(t, pc)
		e := &r.tagged[t][idx]
		if e.valid && e.tag == tag {
			provider = t
			if taken && e.ctr < 1 {
				e.ctr++
			} else if !taken && e.ctr > -2 {
				e.ctr--
			}
			break
		}
	}
	if provider < 0 {
		bi := r.bimodalIndex(pc)
		if taken && r.bimodal[bi] < 3 {
			r.bimodal[bi]++
		} else if !taken && r.bimodal[bi] > 0 {
			r.bimodal[bi]--
		}
	}
	if !correct {
		r.Mispredicts++
		for t := provider + 1; t < len(r.tagged); t++ {
			idx, tag := r.taggedIndex(t, pc)
			e := &r.tagged[t][idx]
			if !e.valid || e.ctr == 0 || e.ctr == -1 {
				var ctr int8 = -1
				if taken {
					ctr = 0
				}
				*e = taggedEntry{tag: tag, ctr: ctr, valid: true}
				break
			}
		}
	}
	r.hist = r.hist<<1 | boolBit(taken)
}

// TestCachedFoldsMatchReference replays random (pc, taken) pairs through
// the predictor and the per-lookup-folding reference: every prediction
// and the mispredict count must agree. The PCs come from a small pool
// and most outcomes follow a per-PC pattern, so the tagged tables both
// hit and allocate; the rest are noise. Configurations include one whose
// history exceeds 64 bits and one with the most tables New accepts.
func TestCachedFoldsMatchReference(t *testing.T) {
	long := DefaultConfig()
	long.HistLens = []int{3, 9, 27, 70}
	wide := DefaultConfig()
	wide.TaggedBits = 9
	wide.HistLens = []int{2, 4, 8, 12, 16, 24, 32, 48}
	for _, cfg := range []Config{DefaultConfig(), long, wide} {
		p, r := New(cfg), newRef(cfg)
		rng := rand.New(rand.NewSource(int64(len(cfg.HistLens))))
		pcs := make([]uint64, 256)
		for i := range pcs {
			pcs[i] = uint64(rng.Intn(1<<20)) << 2
		}
		const n = 150_000
		for i := 0; i < n; i++ {
			k := rng.Intn(len(pcs))
			pc := pcs[k]
			taken := (i/(k%7+1))%2 == 0
			if rng.Intn(8) == 0 {
				taken = !taken
			}
			if got, want := p.Predict(pc), r.Predict(pc); got != want {
				t.Fatalf("HistLens %v: branch %d (pc %#x): Predict = %v, reference %v", cfg.HistLens, i, pc, got, want)
			}
			p.Update(pc, taken)
			r.Update(pc, taken)
		}
		if p.Mispredicts != r.Mispredicts || p.Lookups != r.Lookups {
			t.Fatalf("HistLens %v: mispredicts/lookups = %d/%d, reference %d/%d",
				cfg.HistLens, p.Mispredicts, p.Lookups, r.Mispredicts, r.Lookups)
		}
		if p.Mispredicts == 0 || p.Mispredicts > n/2 {
			t.Fatalf("HistLens %v: %d mispredicts over %d branches: the replay does not exercise the tables", cfg.HistLens, p.Mispredicts, n)
		}
	}
}

// TestNewRejectsTooManyTables pins that New refuses more tagged tables
// than its fixed fold arrays hold instead of indexing past them.
func TestNewRejectsTooManyTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistLens = make([]int, maxTagged+1)
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted more tagged tables than it supports")
		}
	}()
	New(cfg)
}

// TestPredictorCopyFromEqualsClone pins that a recycled predictor
// overwritten by CopyFrom predicts exactly as a fresh clone does.
func TestPredictorCopyFromEqualsClone(t *testing.T) {
	src, dst := newDefault(), newDefault()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		pc := uint64(rng.Intn(512)) << 2
		src.Update(pc, rng.Intn(3) > 0)
		dst.Update(pc^4, rng.Intn(2) == 0) // unrelated state to overwrite
		src.UpdateTarget(pc, pc+64)
		src.Push(pc)
	}
	dst.CopyFrom(src)
	cl := src.Clone()
	for i := 0; i < 20_000; i++ {
		pc := uint64(rng.Intn(512)) << 2
		taken := rng.Intn(3) > 0
		if a, b := dst.Predict(pc), cl.Predict(pc); a != b {
			t.Fatalf("branch %d: copied predictor predicts %v, clone %v", i, a, b)
		}
		dst.Update(pc, taken)
		cl.Update(pc, taken)
	}
	if dst.Mispredicts != cl.Mispredicts {
		t.Fatalf("mispredicts: copy %d, clone %d", dst.Mispredicts, cl.Mispredicts)
	}
	if _, ok := dst.PredictTarget(8); !ok {
		t.Fatal("copy lost the source's BTB")
	}
}

// TestResetEqualsNew pins that Reset leaves nothing of a trained
// predictor's state: it equals a new one field for field.
func TestResetEqualsNew(t *testing.T) {
	p := newDefault()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20_000; i++ {
		pc := uint64(rng.Intn(512)) << 2
		p.PredictUpdate(pc, rng.Intn(3) > 0)
		p.UpdateTarget(pc, pc+64)
		p.Push(pc)
		p.PredictTarget(pc)
	}
	p.Reset()
	if want := newDefault(); !reflect.DeepEqual(p, want) {
		t.Errorf("reset predictor differs from a new one:\n%+v\nwant\n%+v", p, want)
	}
}
