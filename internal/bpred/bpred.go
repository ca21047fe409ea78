// Package bpred implements the front-end prediction structures from
// Table 1: a PPM-like tagged multi-table direction predictor (after
// Michaud, JILP 2005) within a 24 KB budget, a 2K-entry branch target
// buffer, and a 32-entry return address stack.
//
// The PPM predictor consults a bimodal base table and three tagged tables
// indexed by progressively longer global-history hashes; the longest
// matching table provides the prediction, and allocation on a mispredict
// moves the branch into a longer-history table.
package bpred

import "fmt"

// Config sizes the predictor.
type Config struct {
	BimodalBits int   // log2 entries of the base bimodal table
	TaggedBits  int   // log2 entries of each tagged table
	HistLens    []int // global history length per tagged table
	BTBBits     int   // log2 entries of the branch target buffer
	RASEntries  int   // return address stack depth
}

// DefaultConfig matches the paper's 24 KB 3-table PPM predictor, 2K-entry
// BTB and 32-entry RAS.
func DefaultConfig() Config {
	return Config{
		BimodalBits: 13, // 8K 2-bit counters = 2 KB
		TaggedBits:  11, // 3 x 2K entries x ~12 bits ≈ 9 KB
		HistLens:    []int{5, 15, 40},
		BTBBits:     11, // 2K entries
		RASEntries:  32,
	}
}

type taggedEntry struct {
	tag   uint16
	ctr   int8 // -2..1, taken if >= 0
	valid bool
}

// maxTagged bounds the number of tagged tables: the cached history
// folds and Update's per-call index scratch are fixed arrays this long.
const maxTagged = 8

// Predictor is the combined direction predictor, BTB, and RAS.
type Predictor struct {
	cfg     Config
	bimodal []int8 // 2-bit saturating counters, taken if >= 2 (range 0..3)
	tagged  [][]taggedEntry
	hist    uint64 // global history, youngest outcome in bit 0

	// idxFold[t] and tagFold[t] are table t's history folded to its index
	// and tag widths: the XOR of the history's width-bit chunks. Update
	// shifts them along with hist and every lookup reads them.
	idxFold, tagFold [maxTagged]uint64
	// win[t] is how many outcomes table t's folds cover (see histWindow),
	// and idxOut[t] and tagOut[t] where in each fold the outcome leaving
	// that window lands: win%width. Fixed at New, so Update divides
	// nothing.
	win, idxOut, tagOut [maxTagged]uint8

	btbTags    []uint32
	btbTargets []uint64

	ras    []uint64
	rasTop int

	// Stats
	Lookups, Mispredicts   uint64
	BTBLookups, BTBMisses  uint64
	RASPushes, RASOverflow uint64
}

// New builds a predictor from cfg. It panics on more than maxTagged
// tagged tables, a machine-configuration error like an invalid cache
// geometry.
func New(cfg Config) *Predictor {
	if len(cfg.HistLens) > maxTagged {
		panic(fmt.Sprintf("bpred: %d tagged tables, at most %d supported", len(cfg.HistLens), maxTagged))
	}
	p := &Predictor{
		cfg:        cfg,
		bimodal:    make([]int8, 1<<cfg.BimodalBits),
		btbTags:    make([]uint32, 1<<cfg.BTBBits),
		btbTargets: make([]uint64, 1<<cfg.BTBBits),
		ras:        make([]uint64, cfg.RASEntries),
	}
	for i := range p.bimodal {
		p.bimodal[i] = 2 // weakly taken
	}
	p.tagged = make([][]taggedEntry, len(cfg.HistLens))
	for i := range p.tagged {
		p.tagged[i] = make([]taggedEntry, 1<<cfg.TaggedBits)
		w := histWindow(cfg.HistLens[i])
		p.win[i] = uint8(w)
		if w > 0 {
			p.idxOut[i], p.tagOut[i] = uint8(w%cfg.TaggedBits), uint8(w%tagBits)
		}
	}
	return p
}

// tagBits is the width of a tagged entry's tag.
const tagBits = 9

// histWindow returns how many bits of global history a table of history
// length histLen folds: at most the 64 hist holds.
func histWindow(histLen int) int {
	if histLen > 64 || histLen < 0 {
		return 64
	}
	return histLen
}

// shiftFold advances fold, the bits-wide fold of a window of history,
// by one outcome: in enters the window and out, the outcome at the
// window's end, leaves it. Folding XORs the window's bits-wide chunks,
// so shifting the window left shifts the fold left with its top bit
// wrapping round, and the leaving outcome, now at bit window, sits at
// bit outPos = window%bits of the fold (the circular shift register of
// TAGE).
func shiftFold(fold uint64, bits uint, in, out uint64, outPos uint8) uint64 {
	fold = (fold<<1 | fold>>(bits-1)) & (1<<bits - 1)
	return fold ^ in ^ out<<outPos
}

func (p *Predictor) taggedIndex(table int, pc uint64) (idx uint64, tag uint16) {
	bits := uint(p.cfg.TaggedBits)
	idx = ((pc >> 2) ^ p.idxFold[table] ^ (pc >> (bits + 2))) & (1<<bits - 1)
	tag = uint16(((pc >> 2) ^ (p.tagFold[table] << 1)) & (1<<tagBits - 1))
	return idx, tag
}

func (p *Predictor) bimodalIndex(pc uint64) uint64 {
	return (pc >> 2) & ((1 << uint(p.cfg.BimodalBits)) - 1)
}

// Predict returns the predicted direction for a conditional branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	p.Lookups++
	for t := len(p.tagged) - 1; t >= 0; t-- {
		idx, tag := p.taggedIndex(t, pc)
		if e := &p.tagged[t][idx]; e.valid && e.tag == tag {
			return e.ctr >= 0
		}
	}
	return p.bimodal[p.bimodalIndex(pc)] >= 2
}

// Update trains the predictor with the resolved direction and shifts the
// global history. Call it exactly once per dynamic conditional branch, in
// program order.
func (p *Predictor) Update(pc uint64, taken bool) {
	// Every table's index and tag, computed once and shared by the
	// prediction, the provider's training and the allocation.
	var idx [maxTagged]uint64
	var tag [maxTagged]uint16
	for t := range p.tagged {
		idx[t], tag[t] = p.taggedIndex(t, pc)
	}
	// The provider is the longest matching table, else the bimodal; its
	// prediction is the one Predict returned against this same state.
	provider := -1
	for t := len(p.tagged) - 1; t >= 0; t-- {
		if e := &p.tagged[t][idx[t]]; e.valid && e.tag == tag[t] {
			provider = t
			break
		}
	}
	var correct bool
	if provider >= 0 {
		e := &p.tagged[provider][idx[provider]]
		correct = (e.ctr >= 0) == taken
		if taken && e.ctr < 1 {
			e.ctr++
		} else if !taken && e.ctr > -2 {
			e.ctr--
		}
	} else {
		bi := p.bimodalIndex(pc)
		correct = (p.bimodal[bi] >= 2) == taken
		if taken && p.bimodal[bi] < 3 {
			p.bimodal[bi]++
		} else if !taken && p.bimodal[bi] > 0 {
			p.bimodal[bi]--
		}
	}

	// On a mispredict, allocate in one longer-history table.
	if !correct {
		p.Mispredicts++
		for t := provider + 1; t < len(p.tagged); t++ {
			e := &p.tagged[t][idx[t]]
			if !e.valid || e.ctr == 0 || e.ctr == -1 {
				var ctr int8 = -1
				if taken {
					ctr = 0
				}
				*e = taggedEntry{tag: tag[t], ctr: ctr, valid: true}
				break
			}
		}
	}

	in := boolBit(taken)
	for t := range p.tagged {
		w := p.win[t]
		if w == 0 {
			continue
		}
		out := p.hist >> (w - 1) & 1
		p.idxFold[t] = shiftFold(p.idxFold[t], uint(p.cfg.TaggedBits), in, out, p.idxOut[t])
		p.tagFold[t] = shiftFold(p.tagFold[t], tagBits, in, out, p.tagOut[t])
	}
	p.hist = p.hist<<1 | in
}

// PredictUpdate is Predict followed by Update for the same branch, with
// the table indices computed once: it counts the lookup and trains,
// returning nothing, for functional warming.
func (p *Predictor) PredictUpdate(pc uint64, taken bool) {
	p.Lookups++
	p.Update(pc, taken)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PredictTarget consults the BTB for the target of a taken control
// transfer at pc. ok is false on a BTB miss.
func (p *Predictor) PredictTarget(pc uint64) (target uint64, ok bool) {
	p.BTBLookups++
	idx := (pc >> 2) & ((1 << uint(p.cfg.BTBBits)) - 1)
	if p.btbTags[idx] == uint32(pc>>2) && p.btbTargets[idx] != 0 {
		return p.btbTargets[idx], true
	}
	p.BTBMisses++
	return 0, false
}

// UpdateTarget installs the resolved target for pc.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	idx := (pc >> 2) & ((1 << uint(p.cfg.BTBBits)) - 1)
	p.btbTags[idx] = uint32(pc >> 2)
	p.btbTargets[idx] = target
}

// Push records a return address on the RAS (for calls).
func (p *Predictor) Push(ret uint64) {
	p.RASPushes++
	if p.rasTop == len(p.ras) {
		p.RASOverflow++
		copy(p.ras, p.ras[1:])
		p.rasTop--
	}
	p.ras[p.rasTop] = ret
	p.rasTop++
}

// Pop predicts a return target from the RAS. ok is false when empty.
func (p *Predictor) Pop() (ret uint64, ok bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop], true
}

// MispredictRate returns the fraction of mispredicted direction lookups.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}
