package bpred

import (
	"math/rand"
	"reflect"
	"testing"
)

func newDefault() *Predictor { return New(DefaultConfig()) }

func TestAlwaysTakenLearns(t *testing.T) {
	p := newDefault()
	pc := uint64(0x1000)
	for i := 0; i < 50; i++ {
		p.Predict(pc)
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Fatal("always-taken branch must be predicted taken")
	}
}

func TestAlwaysNotTakenLearns(t *testing.T) {
	p := newDefault()
	pc := uint64(0x2000)
	for i := 0; i < 50; i++ {
		p.Predict(pc)
		p.Update(pc, false)
	}
	if p.Predict(pc) {
		t.Fatal("never-taken branch must be predicted not-taken")
	}
}

func TestAlternatingPatternLearned(t *testing.T) {
	// T,N,T,N... is trivially captured with history; a PPM predictor must
	// get well above 90% accuracy after warmup.
	p := newDefault()
	pc := uint64(0x3000)
	correct, total := 0, 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		pred := p.Predict(pc)
		if i > 500 {
			total++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("alternating accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestLoopPatternLearned(t *testing.T) {
	// 7 taken, 1 not-taken (a loop with trip count 8).
	p := newDefault()
	pc := uint64(0x4000)
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		taken := i%8 != 7
		pred := p.Predict(pc)
		if i > 1000 {
			total++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("loop accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestRandomBranchNearChance(t *testing.T) {
	p := newDefault()
	rng := rand.New(rand.NewSource(42))
	pc := uint64(0x5000)
	correct, total := 0, 0
	for i := 0; i < 5000; i++ {
		taken := rng.Intn(2) == 0
		pred := p.Predict(pc)
		total++
		if pred == taken {
			correct++
		}
		p.Update(pc, taken)
	}
	acc := float64(correct) / float64(total)
	if acc > 0.65 {
		t.Fatalf("random branch accuracy %.2f is implausibly high", acc)
	}
}

func TestDistinctBranchesIndependent(t *testing.T) {
	p := newDefault()
	a, b := uint64(0x1000), uint64(0x1F04) // distinct bimodal indices
	for i := 0; i < 100; i++ {
		p.Update(a, true)
		p.Update(b, false)
	}
	if !p.Predict(a) || p.Predict(b) {
		t.Fatal("independent branches interfere")
	}
}

func TestMispredictCounting(t *testing.T) {
	p := newDefault()
	pc := uint64(0x6000)
	for i := 0; i < 10; i++ {
		p.Predict(pc)
		p.Update(pc, true)
	}
	before := p.Mispredicts
	p.Predict(pc)
	p.Update(pc, false) // surprise
	if p.Mispredicts != before+1 {
		t.Fatalf("Mispredicts = %d, want %d", p.Mispredicts, before+1)
	}
	if p.Lookups == 0 || p.Mispredicts == 0 {
		t.Fatalf("Mispredicts/Lookups = %d/%d, want a positive rate", p.Mispredicts, p.Lookups)
	}
}

func TestBTB(t *testing.T) {
	p := newDefault()
	if _, ok := p.PredictTarget(0x1000); ok {
		t.Fatal("cold BTB must miss")
	}
	p.UpdateTarget(0x1000, 0x8000)
	tgt, ok := p.PredictTarget(0x1000)
	if !ok || tgt != 0x8000 {
		t.Fatalf("BTB hit = %v target=%#x", ok, tgt)
	}
	if p.BTBMisses != 1 || p.BTBLookups != 2 {
		t.Fatalf("BTB stats lookups=%d misses=%d", p.BTBLookups, p.BTBMisses)
	}
}

func TestBTBConflict(t *testing.T) {
	p := New(DefaultConfig())
	// Two PCs mapping to the same BTB set: differ by entries*4.
	a := uint64(0x1000)
	b := a + uint64(4<<11)
	p.UpdateTarget(a, 0x100)
	p.UpdateTarget(b, 0x200)
	if tgt, ok := p.PredictTarget(a); ok && tgt == 0x100 {
		t.Fatal("conflicting BTB entry must have displaced the first")
	}
	if tgt, ok := p.PredictTarget(b); !ok || tgt != 0x200 {
		t.Fatal("latest BTB entry must be present")
	}
}

func TestRASLIFO(t *testing.T) {
	p := newDefault()
	p.Push(0x100)
	p.Push(0x200)
	if r, ok := p.Pop(); !ok || r != 0x200 {
		t.Fatalf("first pop = %#x, %v", r, ok)
	}
	if r, ok := p.Pop(); !ok || r != 0x100 {
		t.Fatalf("second pop = %#x, %v", r, ok)
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("empty RAS must report not-ok")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 2
	p := New(cfg)
	p.Push(1)
	p.Push(2)
	p.Push(3) // drops 1
	if p.RASOverflow != 1 {
		t.Fatalf("RASOverflow = %d", p.RASOverflow)
	}
	r1, _ := p.Pop()
	r2, _ := p.Pop()
	if r1 != 3 || r2 != 2 {
		t.Fatalf("pops = %d,%d, want 3,2", r1, r2)
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("oldest entry must have been dropped")
	}
}

func TestFoldHistory(t *testing.T) {
	if foldHistory(0, 10, 5) != 0 {
		t.Error("zero history folds to zero")
	}
	// Folding must be bounded by the requested width.
	for hl := 1; hl <= 64; hl += 7 {
		v := foldHistory(^uint64(0), hl, 8)
		if v >= 256 {
			t.Errorf("fold(%d bits) = %d exceeds width", hl, v)
		}
	}
}

// TestPredictUpdateEqualsPredictThenUpdate pins that the warming path's
// single call leaves every field, counters included, as Predict
// followed by Update does.
func TestPredictUpdateEqualsPredictThenUpdate(t *testing.T) {
	a, b := newDefault(), newDefault()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50_000; i++ {
		pc := uint64(rng.Intn(1<<12)) << 2
		taken := rng.Intn(3) > 0
		a.Predict(pc)
		a.Update(pc, taken)
		b.PredictUpdate(pc, taken)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PredictUpdate left the predictor different from Predict then Update")
	}
}
