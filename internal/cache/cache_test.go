package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func smallCfg() Config {
	return Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64, VictimEntries: 0}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 1024, Assoc: 2, LineBytes: 48},       // non-power-of-two line
		{SizeBytes: 1024, Assoc: 0, LineBytes: 64},       // zero assoc
		{SizeBytes: 1000, Assoc: 2, LineBytes: 64},       // size not multiple
		{SizeBytes: 64 * 2 * 3, Assoc: 2, LineBytes: 64}, // non-pow2 sets
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New must panic on invalid config")
		}
	}()
	New(Config{SizeBytes: 3, Assoc: 1, LineBytes: 2})
}

func TestMissThenHit(t *testing.T) {
	c := New(smallCfg())
	if c.Lookup(0x1000, false) {
		t.Fatal("cold cache must miss")
	}
	c.Insert(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("inserted line must hit")
	}
	if !c.Lookup(0x103F, false) {
		t.Fatal("same line, different offset must hit")
	}
	if c.Lookup(0x1040, false) {
		t.Fatal("next line must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallCfg()) // 8 sets, 2 ways
	// Three lines mapping to set 0: addresses differ by numSets*line = 512.
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Lookup(a, false) // make a most recently used
	c.Insert(d, false) // should evict b
	if !c.Probe(a) {
		t.Error("a (MRU) must survive")
	}
	if c.Probe(b) {
		t.Error("b (LRU) must be evicted")
	}
	if !c.Probe(d) {
		t.Error("d must be present")
	}
}

func TestEvictionReportsDirty(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0, true) // dirty
	c.Insert(512, false)
	ev, dirty := c.Insert(1024, false)
	if ev != 0 || !dirty {
		t.Errorf("evicted=%#x dirty=%v, want 0 dirty", ev, dirty)
	}
}

func TestVictimBuffer(t *testing.T) {
	cfg := smallCfg()
	cfg.VictimEntries = 2
	c := New(cfg)
	c.Insert(0, false)
	c.Insert(512, false)
	c.Insert(1024, false) // evicts line 0 into victim buffer
	if !c.Lookup(0, false) {
		t.Fatal("victim buffer must satisfy the access")
	}
	if c.VictimHits != 1 {
		t.Errorf("VictimHits = %d, want 1", c.VictimHits)
	}
	// After a victim hit the line is back in the main array.
	if !c.Probe(0) {
		t.Error("line must be re-inserted after victim hit")
	}
}

func TestVictimBufferOverflow(t *testing.T) {
	cfg := smallCfg()
	cfg.VictimEntries = 1
	c := New(cfg)
	c.Insert(0, true)
	c.Insert(512, false)
	c.Insert(1024, false) // line 0 -> victim buffer
	ev, dirty := c.Insert(1536, false)
	// line 512 pushes line 0 out of the 1-entry victim buffer.
	if ev != 0 || !dirty {
		t.Errorf("victim overflow evicted=%#x dirty=%v, want 0,true", ev, dirty)
	}
}

func TestSpeculativeFlush(t *testing.T) {
	c := New(smallCfg())
	c.InsertSpeculative(0x100)
	c.Insert(0x200, false)
	c.InsertSpeculative(0x200) // tags the line already present
	c.Insert(0x300, false)
	if n := c.FlushSpeculative(); n != 2 {
		t.Fatalf("FlushSpeculative = %d, want 2", n)
	}
	if c.Probe(0x100) || c.Probe(0x200) {
		t.Error("speculative lines must be invalidated")
	}
	if !c.Probe(0x300) {
		t.Error("non-speculative line must survive flush")
	}
}

func TestStatsCount(t *testing.T) {
	c := New(smallCfg())
	c.Lookup(0, false)
	c.Insert(0, false)
	c.Lookup(0, false)
	c.Lookup(0, false)
	if c.Misses != 1 || c.Hits != 2 {
		t.Errorf("hits=%d misses=%d, want 2,1", c.Hits, c.Misses)
	}
}

func TestReset(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0, true)
	c.Lookup(0, false)
	c.Reset()
	if c.Probe(0) {
		t.Error("Reset must invalidate lines")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("Reset must clear stats")
	}
}

// TestResetEqualsNew pins that Reset leaves nothing of a used cache's
// state, victim buffer included: the cache equals a new one field for
// field.
func TestResetEqualsNew(t *testing.T) {
	cfg := smallCfg()
	cfg.VictimEntries = 4
	c := New(cfg)
	for a := uint64(0); a < 1<<14; a += 64 {
		if !c.Lookup(a, a%128 == 0) {
			c.Insert(a, a%128 == 0)
		}
	}
	if c.VictimHits+c.Misses == 0 || c.vLen == 0 {
		t.Fatal("the walk left the victim buffer empty")
	}
	c.Reset()
	if !reflect.DeepEqual(c, New(cfg)) {
		t.Errorf("reset cache differs from a new one:\n%+v\nwant\n%+v", c, New(cfg))
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0, false)   // LRU after next insert
	c.Insert(512, false) // MRU
	c.Probe(0)           // must NOT refresh line 0
	c.Insert(1024, false)
	if c.Probe(0) {
		t.Error("Probe must not update LRU state")
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0x40, false)
	ev, d := c.Insert(0x40, true) // refill of present line
	if ev != 0 || d {
		t.Error("refill of present line must not evict")
	}
	// Evict it and confirm dirtiness merged.
	c.Insert(0x40+512, false)
	_, dirty := c.Insert(0x40+1024, false)
	if !dirty {
		t.Error("merged dirty bit lost")
	}
}

func TestLineAddrProperty(t *testing.T) {
	c := New(smallCfg())
	f := func(addr uint64) bool {
		la := c.LineAddr(addr)
		return la%64 == 0 && la <= addr && addr-la < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after inserting N distinct lines that map to one set with
// associativity A and no victim buffer, exactly min(N, A) remain.
func TestSetOccupancyProperty(t *testing.T) {
	f := func(n uint8) bool {
		c := New(smallCfg()) // 2-way, 8 sets
		count := int(n%6) + 1
		for i := 0; i < count; i++ {
			c.Insert(uint64(i)*512, false)
		}
		present := 0
		for i := 0; i < count; i++ {
			if c.Probe(uint64(i) * 512) {
				present++
			}
		}
		want := count
		if want > 2 {
			want = 2
		}
		return present == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVictimRingWrapsFIFO exercises the victim ring past several
// wrap-arounds: entries must come back out strictly oldest-first, and
// mid-ring removal (a victim hit) must preserve the order of the rest.
func TestVictimRingWrapsFIFO(t *testing.T) {
	cfg := smallCfg() // 2-way, 8 sets, 64 B lines -> set stride 512
	cfg.VictimEntries = 3
	c := New(cfg)
	// Fill one set and keep evicting through it (addresses start at 512 so
	// a popped line address is never confused with "no eviction"): line i
	// enters the victim buffer when line i+2 is inserted, and pops out as
	// the returned eviction 3 insertions later, oldest first.
	var popped []uint64
	for i := 1; i <= 12; i++ {
		ev, _ := c.Insert(uint64(i)*512, false)
		if i >= 6 {
			popped = append(popped, ev)
		}
	}
	for k, ev := range popped {
		if want := uint64(k+1) * 512; ev != want {
			t.Errorf("pop %d = line %#x, want %#x (FIFO order)", k, ev, want)
		}
	}
	// Mid-ring removal: with a 4-entry ring, hit the second-oldest victim
	// entry, then pin that the three survivors (plus the entry the re-insert
	// displaced) still pop out strictly oldest-first. A removal that swaps
	// instead of shifting would reorder the pops.
	cfg.VictimEntries = 4
	c2 := New(cfg)
	for _, a := range []uint64{512, 1024, 1536, 2048, 2560, 3072} {
		c2.Insert(a, false)
	}
	// victim = [512, 1024, 1536, 2048], set = {2560, 3072}.
	if !c2.Lookup(1024, false) {
		t.Fatal("victim middle entry must hit")
	}
	if c2.VictimHits != 1 {
		t.Errorf("VictimHits = %d, want 1", c2.VictimHits)
	}
	if !c2.Probe(1024) {
		t.Error("victim-hit line must be resident again")
	}
	// Re-inserting 1024 displaced 2560 into the ring: victim is now
	// [512, 1536, 2048, 2560] and must drain in exactly that order.
	for i, want := range []uint64{512, 1536, 2048} {
		ev, _ := c2.Insert(3584+uint64(i)*512, false)
		if ev != want {
			t.Errorf("post-removal pop %d = line %#x, want %#x (FIFO order)", i, ev, want)
		}
	}
}
