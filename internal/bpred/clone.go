package bpred

import "slices"

// Clone returns a deep copy of the predictor: all direction tables, the
// BTB, the RAS, the global history and its folds, and statistics. The
// configured HistLens slice is shared (it is never written after New).
// Cloning must be exact — predictions from a clone are byte-identical to
// predictions from the original — so warmed predictor state can be
// checkpointed once and reused across simulations (pipeline.WarmState).
func (p *Predictor) Clone() *Predictor {
	cl := *p
	cl.bimodal = slices.Clone(p.bimodal)
	cl.tagged = make([][]taggedEntry, len(p.tagged))
	for i := range p.tagged {
		cl.tagged[i] = slices.Clone(p.tagged[i])
	}
	cl.btbTags = slices.Clone(p.btbTags)
	cl.btbTargets = slices.Clone(p.btbTargets)
	cl.ras = slices.Clone(p.ras)
	return &cl
}

// CopyFrom makes p an exact copy of src, as Clone would, reusing p's
// tables instead of allocating. Both predictors must have been built
// from equal configurations; CopyFrom panics on mismatched table sizes,
// since recycling a predictor across configurations is a programming
// error.
func (p *Predictor) CopyFrom(src *Predictor) {
	if !sameShape(p, src) {
		panic("bpred: CopyFrom across configurations")
	}
	bimodal, tagged, btbTags, btbTargets, ras := p.bimodal, p.tagged, p.btbTags, p.btbTargets, p.ras
	copy(bimodal, src.bimodal)
	for i := range tagged {
		copy(tagged[i], src.tagged[i])
	}
	copy(btbTags, src.btbTags)
	copy(btbTargets, src.btbTargets)
	copy(ras, src.ras)
	*p = *src
	p.bimodal, p.tagged, p.btbTags, p.btbTargets, p.ras = bimodal, tagged, btbTags, btbTargets, ras
}

// Reset makes p the predictor New builds from its configuration, reusing
// its tables instead of allocating.
func (p *Predictor) Reset() {
	for i := range p.bimodal {
		p.bimodal[i] = 2 // weakly taken, as New sets them
	}
	for _, t := range p.tagged {
		clear(t)
	}
	clear(p.btbTags)
	clear(p.btbTargets)
	clear(p.ras)
	*p = Predictor{
		cfg: p.cfg, bimodal: p.bimodal, tagged: p.tagged,
		win: p.win, idxOut: p.idxOut, tagOut: p.tagOut,
		btbTags: p.btbTags, btbTargets: p.btbTargets, ras: p.ras,
	}
}

// sameShape reports whether two predictors' tables have equal sizes.
func sameShape(a, b *Predictor) bool {
	if len(a.bimodal) != len(b.bimodal) || len(a.tagged) != len(b.tagged) ||
		len(a.btbTags) != len(b.btbTags) || len(a.ras) != len(b.ras) {
		return false
	}
	for i := range a.tagged {
		if len(a.tagged[i]) != len(b.tagged[i]) {
			return false
		}
	}
	return true
}
