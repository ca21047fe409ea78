package mem

import (
	"reflect"
	"testing"
)

// TestHierarchyCloneIsolated pins that a hierarchy built by CloneCaches
// shares no mutable state with its original: accesses through the clone
// must not change what the original's caches hold, and vice versa.
func TestHierarchyCloneIsolated(t *testing.T) {
	h := New(DefaultConfig())
	// Populate: a strided walk that fills L1D sets and some MSHR/pending
	// state via timed accesses.
	for a := uint64(0); a < 1<<16; a += 64 {
		h.Data(int64(a/64), a, a%128 == 0)
	}

	c := CloneCaches(h.Config(), h)

	// The clone sees the original's cache contents: the most recently
	// touched line must be resident in both.
	if !c.DCache.Lookup(1<<16-64, false) {
		t.Fatal("clone lost a line the original holds")
	}

	// Mutating the clone leaves the original untouched.
	origHits, origMisses := h.DCache.Hits, h.DCache.Misses
	for a := uint64(1 << 20); a < 1<<20+1<<16; a += 64 {
		c.Data(int64(a/64), a, false)
	}
	if h.DCache.Hits != origHits || h.DCache.Misses != origMisses {
		t.Fatalf("original's D$ counters moved after clone accesses: hits %d->%d misses %d->%d",
			origHits, h.DCache.Hits, origMisses, h.DCache.Misses)
	}
	if h.pending.n != c.pending.n && h.pending.n == 0 {
		t.Fatal("original pending map aliased by clone")
	}

	// And mutating the original leaves the clone untouched.
	cHits := c.DCache.Hits
	for a := uint64(2 << 20); a < 2<<20+1<<15; a += 64 {
		h.Data(int64(a/64), a, false)
	}
	if c.DCache.Hits != cHits {
		t.Fatalf("clone's D$ counters moved after original accesses: %d -> %d", cHits, c.DCache.Hits)
	}

	// MissObserver must not carry over: each simulation installs its own.
	h.MissObserver = func(int64, int64, bool) {}
	if c2 := CloneCaches(h.Config(), h); c2.MissObserver != nil {
		t.Fatal("clone inherited a MissObserver")
	}
}

// TestCacheCloneVictim pins victim-buffer deep copying.
func TestCacheCloneVictim(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1D.VictimEntries == 0 {
		t.Skip("no victim buffer in the default config")
	}
	h := New(cfg)
	for a := uint64(0); a < 1<<18; a += 64 {
		h.DCache.Lookup(a, false)
		h.DCache.Insert(a, false)
	}
	c := h.DCache.Clone()
	before := h.DCache.VictimHits
	// Thrash the clone's victim buffer.
	for a := uint64(1 << 21); a < 1<<21+1<<18; a += 64 {
		c.Lookup(a, false)
		c.Insert(a, false)
	}
	if h.DCache.VictimHits != before {
		t.Fatal("original victim state aliased by clone")
	}
}

// TestCopyCachesEqualsCloneCaches pins that recycling a hierarchy is
// invisible: CopyCaches into a buffer dirtied under another
// configuration — fills in flight, busy MSHRs and bus, primed stream
// buffers, statistics — behaves exactly like a fresh CloneCaches under
// the new configuration, which in turn starts from New's non-cache
// state.
func TestCopyCachesEqualsCloneCaches(t *testing.T) {
	// walk streams (priming stream buffers), then scatters misses
	// faster than the MSHRs drain.
	walk := func(h *Hierarchy, base uint64) (out []Result) {
		for a := base; a < base+1<<16; a += 64 {
			out = append(out, h.Data(int64(a/256), a, a%192 == 0))
			out = append(out, h.Inst(int64(a/256), 0x40_0000+a%4096))
		}
		for i := uint64(0); i < 512; i++ {
			out = append(out, h.Data(1024+int64(i), base+1<<20+(i*2654435761)%(1<<22)&^63, false))
		}
		return out
	}
	src := New(DefaultConfig())
	walk(src, 0)
	dst := New(DefaultConfig())
	walk(dst, 1<<24)

	cfg := DefaultConfig()
	cfg.L2HitLat, cfg.MemLat, cfg.NumMSHRs, cfg.StreamBufs = 30, 300, 6, 3
	dst.CopyCaches(cfg, src)
	fresh := CloneCaches(cfg, src)
	if dst.Config() != cfg || fresh.Config() != cfg {
		t.Fatal("copies do not carry the requested configuration")
	}
	if dst.Stats != (Stats{}) || dst.pending.n != 0 || len(dst.mshrs) != 0 || dst.busFree != 0 {
		t.Fatalf("recycled hierarchy kept timing state: stats %+v, %d fills, %d MSHRs, bus free at %d",
			dst.Stats, dst.pending.n, len(dst.mshrs), dst.busFree)
	}
	for _, base := range []uint64{0, 1 << 24, 1 << 26} {
		a, b := walk(dst, base), walk(fresh, base)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("walk from %#x, access %d: recycled %+v, fresh %+v", base, i, a[i], b[i])
			}
		}
	}
	if dst.Stats != fresh.Stats {
		t.Fatalf("stats: recycled %+v, fresh %+v", dst.Stats, fresh.Stats)
	}
	if dst.Stats.Prefetches == 0 || dst.Stats.MSHRStallCycles == 0 {
		t.Fatalf("walk exercised no prefetches or MSHR stalls (%+v)", dst.Stats)
	}
}

// TestResetEqualsNew pins that Reset empties a used hierarchy into the
// one New builds under the new configuration: empty caches, and timing
// state, statistics and behaviour all as New's.
func TestResetEqualsNew(t *testing.T) {
	walk := func(h *Hierarchy, base uint64) (out []Result) {
		for a := base; a < base+1<<16; a += 64 {
			out = append(out, h.Data(int64(a/256), a, a%192 == 0))
			out = append(out, h.Inst(int64(a/256), 0x40_0000+a%4096))
		}
		return out
	}
	h := New(DefaultConfig())
	walk(h, 0)
	cfg := DefaultConfig()
	cfg.L2HitLat, cfg.NumMSHRs, cfg.StreamBufs = 30, 6, 3
	h.Reset(cfg)
	fresh := New(cfg)
	for _, c := range [][2]any{{h.ICache, fresh.ICache}, {h.DCache, fresh.DCache}, {h.L2, fresh.L2}} {
		if !reflect.DeepEqual(c[0], c[1]) {
			t.Fatalf("reset %T differs from a new one", c[0])
		}
	}
	if h.Config() != cfg || h.Stats != (Stats{}) || h.pending.n != 0 || len(h.mshrs) != 0 || h.busFree != 0 {
		t.Fatalf("reset hierarchy kept timing state: config %+v, stats %+v, %d fills, %d MSHRs, bus free at %d",
			h.Config(), h.Stats, h.pending.n, len(h.mshrs), h.busFree)
	}
	a, b := walk(h, 0), walk(fresh, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d: reset %+v, new %+v", i, a[i], b[i])
		}
	}
}
