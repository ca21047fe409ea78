package pipeline

// Model-based test of the RunaheadCache's open-addressed index: a
// reference implementation using a plain map plus an order slice must
// agree with the backshift-deleting, epoch-cleared table on every
// lookup, across adversarial key streams (dense collisions, repeated
// Clear, capacity-1 thrashing).

import (
	"math/rand"
	"testing"

	"icfp/internal/mem"
)

// refCache is the obvious FIFO-evicting forwarding cache.
type refCache struct {
	cap   int
	m     map[uint64][2]uint64 // addr -> {val, poison}
	order []uint64
}

func newRefCache(capacity int) *refCache {
	return &refCache{cap: capacity, m: make(map[uint64][2]uint64)}
}

func (r *refCache) Put(addr, val uint64, poison uint8) {
	if _, ok := r.m[addr]; ok {
		r.m[addr] = [2]uint64{val, uint64(poison)}
		return
	}
	if len(r.order) >= r.cap {
		delete(r.m, r.order[0])
		r.order = r.order[1:]
	}
	r.m[addr] = [2]uint64{val, uint64(poison)}
	r.order = append(r.order, addr)
}

func (r *refCache) Get(addr uint64) (uint64, uint8, bool) {
	v, ok := r.m[addr]
	if !ok {
		return 0, 0, false
	}
	return v[0], uint8(v[1]), true
}

func (r *refCache) Clear() {
	clear(r.m)
	r.order = r.order[:0]
}

func TestRunaheadCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 16, 256} {
		rc := NewRunaheadCache(capacity)
		ref := newRefCache(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		// A small key universe forces constant collisions, updates and
		// evictions; keys a multiple of the table size apart probe to the
		// same home slot, exercising the backshift chains.
		keys := make([]uint64, 3*capacity+5)
		for i := range keys {
			keys[i] = uint64(i) * 1024
		}
		for op := 0; op < 20000; op++ {
			switch k := rng.Intn(10); {
			case k == 0:
				rc.Clear()
				ref.Clear()
			case k < 4:
				addr := keys[rng.Intn(len(keys))]
				got, gp, gok := rc.Get(addr)
				want, wp, wok := ref.Get(addr)
				if gok != wok || got != want || gp != wp {
					t.Fatalf("cap %d op %d: Get(%#x) = (%d,%d,%v), want (%d,%d,%v)",
						capacity, op, addr, got, gp, gok, want, wp, wok)
				}
			default:
				addr := keys[rng.Intn(len(keys))]
				val := rng.Uint64()
				poison := uint8(rng.Intn(3))
				rc.Put(addr, val, poison)
				ref.Put(addr, val, poison)
			}
			if rc.Len() != len(ref.order) {
				t.Fatalf("cap %d op %d: Len %d, want %d", capacity, op, rc.Len(), len(ref.order))
			}
		}
		// Final sweep: every key agrees.
		for _, addr := range keys {
			got, gp, gok := rc.Get(addr)
			want, wp, wok := ref.Get(addr)
			if gok != wok || got != want || gp != wp {
				t.Fatalf("cap %d final: Get(%#x) = (%d,%d,%v), want (%d,%d,%v)",
					capacity, addr, got, gp, gok, want, wp, wok)
			}
		}
	}
}

// TestRunaheadCacheEpochWrap forces the 32-bit epoch counter to wrap and
// checks stale stamps cannot alias as live.
func TestRunaheadCacheEpochWrap(t *testing.T) {
	rc := NewRunaheadCache(4)
	rc.Put(0x1000, 7, 0)
	rc.cur = ^uint32(0) - 1 // two Clears from wrapping
	rc.Clear()
	rc.Put(0x2000, 9, 0)
	rc.Clear() // wraps: epochs reset, cur restarts at 1
	if rc.cur != 1 {
		t.Fatalf("cur after wrap = %d, want 1", rc.cur)
	}
	if _, _, ok := rc.Get(0x1000); ok {
		t.Fatal("stale pre-wrap key visible after wrap")
	}
	if _, _, ok := rc.Get(0x2000); ok {
		t.Fatal("cleared key visible after wrap")
	}
	rc.Put(0x3000, 11, 2)
	if v, p, ok := rc.Get(0x3000); !ok || v != 11 || p != 2 {
		t.Fatalf("post-wrap Put/Get = (%d,%d,%v), want (11,2,true)", v, p, ok)
	}
}

// TestAdvanceTriggerFires pins the trigger table: which miss levels
// start an episode from normal mode, and which an advancing iCFP
// poisons instead of waiting out.
func TestAdvanceTriggerFires(t *testing.T) {
	levels := []mem.Level{mem.LevelL1, mem.LevelL2, mem.LevelStream, mem.LevelMem}
	want := map[AdvanceTrigger][2][4]bool{ // [advancing][level]
		TriggerL2Only:     {{false, false, false, true}, {false, false, false, true}},
		TriggerPrimaryD1:  {{false, true, true, true}, {false, false, false, true}},
		TriggerAll:        {{false, true, true, true}, {false, true, true, true}},
		AdvanceTrigger(9): {},
	}
	for trig, byMode := range want {
		for a, advancing := range []bool{false, true} {
			for k, level := range levels {
				if got := trig.Fires(level, advancing); got != byMode[a][k] {
					t.Errorf("%v.Fires(%v, advancing %v) = %v, want %v", trig, level, advancing, got, byMode[a][k])
				}
			}
		}
	}
}
