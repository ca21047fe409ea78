package mem

import (
	"testing"

	"icfp/internal/cache"
)

// testConfig returns a small hierarchy with prefetching disabled so that
// tests control every miss.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.StreamBufs = 0
	return cfg
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{
		LevelL1: "L1", LevelL2: "L2", LevelStream: "stream", LevelMem: "mem", Level(9): "?",
	} {
		if lvl.String() != want {
			t.Errorf("Level(%d) = %q, want %q", lvl, lvl.String(), want)
		}
	}
}

func TestColdMissGoesToMemory(t *testing.T) {
	h := New(testConfig())
	r := h.Data(0, 0x10000, false)
	if r.Level != LevelMem {
		t.Fatalf("cold access level = %v", r.Level)
	}
	if r.Done != int64(h.cfg.MemLat) {
		t.Fatalf("cold access done = %d, want %d", r.Done, h.cfg.MemLat)
	}
}

func TestL1HitAfterFill(t *testing.T) {
	h := New(testConfig())
	h.Data(0, 0x10000, false)
	r := h.Data(1000, 0x10000, false)
	if r.Level != LevelL1 || r.Done != 1000 {
		t.Fatalf("after fill: level=%v done=%d", r.Level, r.Done)
	}
}

func TestL2HitLatency(t *testing.T) {
	h := New(testConfig())
	h.Data(0, 0x10000, false) // fills L2+L1
	// Evict from tiny range? Instead access a different 64B line within the
	// same 128B L2 line: L1 miss (different L1 line), L2 hit.
	r := h.Data(1000, 0x10040, false)
	if r.Level != LevelL2 {
		t.Fatalf("level = %v, want L2", r.Level)
	}
	if r.Done != 1000+int64(h.cfg.L2HitLat) {
		t.Fatalf("done = %d, want %d", r.Done, 1000+int64(h.cfg.L2HitLat))
	}
}

func TestMSHRMerge(t *testing.T) {
	h := New(testConfig())
	r1 := h.Data(0, 0x20000, false)
	r2 := h.Data(5, 0x20040, false) // same 128B L2 line, different L1 line
	if r2.Done != r1.Done {
		t.Fatalf("merged miss done=%d, want %d", r2.Done, r1.Done)
	}
	if h.Stats.MSHRMergeHits != 1 {
		t.Fatalf("MSHRMergeHits = %d", h.Stats.MSHRMergeHits)
	}
}

func TestPendingFillDelaysL1Hit(t *testing.T) {
	h := New(testConfig())
	r1 := h.Data(0, 0x30000, false)
	// Same L1 line again while the fill is still in flight: tag state says
	// hit, but data cannot arrive before the original fill.
	r2 := h.Data(10, 0x30000, false)
	if r2.Level != LevelL1 {
		t.Fatalf("level = %v", r2.Level)
	}
	if r2.Done != r1.Done {
		t.Fatalf("pending-gated hit done=%d, want %d", r2.Done, r1.Done)
	}
	// After completion the gate is gone.
	r3 := h.Data(r1.Done+1, 0x30000, false)
	if r3.Done != r1.Done+1 {
		t.Fatalf("post-fill hit done=%d", r3.Done)
	}
}

func TestBusSerializesIndependentMisses(t *testing.T) {
	h := New(testConfig())
	r1 := h.Data(0, 0x100000, false)
	r2 := h.Data(0, 0x200000, false)
	bus := h.cfg.busCycles()
	if r2.Done != r1.Done+bus {
		t.Fatalf("second miss done=%d, want %d", r2.Done, r1.Done+bus)
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	cfg := testConfig()
	cfg.NumMSHRs = 2
	h := New(cfg)
	h.Data(0, 0x100000, false)
	h.Data(0, 0x200000, false)
	r3 := h.Data(0, 0x300000, false) // must wait for an MSHR
	if h.Stats.MSHRStallCycles == 0 {
		t.Fatal("expected MSHR stall cycles")
	}
	if r3.Done <= int64(cfg.MemLat)+cfg.busCycles() {
		t.Fatalf("third miss done=%d suspiciously early", r3.Done)
	}
}

func TestStreamBufferHit(t *testing.T) {
	cfg := DefaultConfig() // prefetch on
	h := New(cfg)
	line := uint64(cfg.L2.LineBytes)
	// A lone miss must NOT allocate a stream (allocation filter).
	h.Data(0, 0x400000, false)
	if h.Stats.Prefetches != 0 {
		t.Fatal("a lone miss must not trigger prefetching")
	}
	// A second consecutive line miss confirms a stream.
	h.Data(1000, 0x400000+line, false)
	if h.Stats.Prefetches == 0 {
		t.Fatal("two consecutive line misses must allocate a stream")
	}
	// The third sequential line should hit the stream buffer.
	r := h.Data(3000, 0x400000+2*line, false)
	if r.Level != LevelStream {
		t.Fatalf("level = %v, want stream", r.Level)
	}
	if h.Stats.StreamHits != 1 {
		t.Fatalf("StreamHits = %d", h.Stats.StreamHits)
	}
}

func TestStreamBufferFollowsStream(t *testing.T) {
	cfg := DefaultConfig()
	h := New(cfg)
	line := uint64(cfg.L2.LineBytes)
	base := uint64(0x800000)
	h.Data(0, base, false)
	// March through many sequential lines; after the first couple the
	// stream should cover everything.
	misses := 0
	cycle := int64(5000)
	for i := uint64(1); i <= 20; i++ {
		r := h.Data(cycle, base+i*line, false)
		if r.Level == LevelMem {
			misses++
		}
		cycle = r.Done + 100
	}
	if misses > 2 {
		t.Fatalf("stream prefetcher missed %d sequential lines", misses)
	}
}

func TestInstPath(t *testing.T) {
	h := New(testConfig())
	r := h.Inst(0, 0x1000)
	if r.Level != LevelMem || h.Stats.InstL1Misses != 1 {
		t.Fatalf("cold ifetch level=%v misses=%d", r.Level, h.Stats.InstL1Misses)
	}
	r2 := h.Inst(1000, 0x1000)
	if r2.Level != LevelL1 {
		t.Fatalf("warm ifetch level=%v", r2.Level)
	}
}

func TestProbeDataNonPerturbing(t *testing.T) {
	h := New(testConfig())
	if h.DCache.Probe(0x5000) || h.L2.Probe(0x5000) {
		t.Fatal("cold probe must find the line in neither cache")
	}
	if h.Stats.DemandDataAccesses != 0 {
		t.Fatal("probe must not count as access")
	}
	h.Data(0, 0x5000, false)
	if !h.DCache.Probe(0x5000) {
		t.Fatal("probe after fill must find the line in L1")
	}
	if h.DCache.Probe(0x5040) || !h.L2.Probe(0x5040) {
		t.Fatal("sibling L1 line must be in L2 only")
	}
}

func TestMissObserver(t *testing.T) {
	h := New(testConfig())
	var got []bool
	h.MissObserver = func(start, done int64, l2miss bool) {
		if done <= start {
			t.Errorf("observer interval [%d,%d] empty", start, done)
		}
		got = append(got, l2miss)
	}
	h.Data(0, 0x6000, false)   // memory miss
	h.Data(500, 0x6040, false) // after fill: L2 hit (same L2 line) -> l2miss=false
	h.Data(501, 0x6000, false) // L1 hit: no callback
	if len(got) != 2 || got[0] != true || got[1] != false {
		t.Fatalf("observer calls = %v", got)
	}
}

func TestWritebackCharged(t *testing.T) {
	cfg := testConfig()
	// Tiny L2 so evictions happen fast; no victim buffering.
	cfg.L2 = cache.Config{SizeBytes: 4096, Assoc: 2, LineBytes: 128, VictimEntries: 0}
	cfg.L1D = cache.Config{SizeBytes: 512, Assoc: 1, LineBytes: 64, VictimEntries: 0}
	h := New(cfg)
	// Write lines mapping to one L2 set until a dirty eviction occurs.
	setStride := uint64(4096 / 2) // sets*line = 2048
	for i := uint64(0); i < 4; i++ {
		h.Data(int64(i)*10, 0x10000+i*setStride, true)
	}
	if h.Stats.Writebacks == 0 {
		t.Fatal("expected at least one writeback")
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	h := New(testConfig())
	h.Prefetch(0, 0x9000)
	if h.Stats.DemandDataAccesses != 0 {
		t.Fatal("prefetch must not count as demand access")
	}
	if !h.DCache.Probe(0x9000) {
		t.Fatal("prefetch must install the line")
	}
}

func TestStoreWriteAllocates(t *testing.T) {
	h := New(testConfig())
	r := h.Data(0, 0xA000, true)
	if r.Level != LevelMem {
		t.Fatalf("store miss level = %v", r.Level)
	}
	r2 := h.Data(r.Done, 0xA000, false)
	if r2.Level != LevelL1 {
		t.Fatal("store must write-allocate")
	}
}
