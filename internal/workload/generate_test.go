package workload

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestGenerateSingleAllocation pins the builder's one-allocation
// contract: the trace's per-instruction arrays are sized n+genSlack up
// front and never regrow. A regrowth would show as a capacity different
// from the preallocation (append doubles), so capacity equality is the
// witness. (Addrs go to fixed-size chunks, which never regrow.)
func TestGenerateSingleAllocation(t *testing.T) {
	for _, name := range AllSPECNames {
		for _, n := range []int{1, 1000, 50_000} {
			w := Generate(Profiles(name), n, DefaultSeed)
			if got, want := w.Trace.Cap(), n+genSlack; got != want {
				t.Fatalf("%s n=%d: trace backing cap %d, want the single preallocation %d (generation overran genSlack and regrew)",
					name, n, got, want)
			}
			if w.Trace.Len() < n {
				t.Fatalf("%s n=%d: trace has %d insts, want >= n", name, n, w.Trace.Len())
			}
		}
	}
}

// TestGenerateRejectsBadN pins the documented 1..MaxInsts contract.
func TestGenerateRejectsBadN(t *testing.T) {
	for _, n := range []int{0, -1, MaxInsts + 1} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Generate(n=%d) did not panic", n)
				}
				if !strings.Contains(r.(string), "out of range") {
					t.Fatalf("Generate(n=%d) panic = %q, want an out-of-range message", n, r)
				}
			}()
			Generate(Profiles("mcf"), n, DefaultSeed)
		}()
	}
}

// TestGenerateOverSpare pins generation over a pool's released trace,
// by the generator scratch the released trace's generation left: for
// every SPEC profile and fuzz-corpus member, a trace built over a longer
// trace, a shorter one or another profile's is the fresh trace, its Len,
// Cap (n+genSlack, the single preallocation) and Checksum alike.
func TestGenerateOverSpare(t *testing.T) {
	const n = 20_000
	type gen struct {
		name string
		p    Profile
		seed int64
	}
	var gens []gen
	for _, name := range AllSPECNames {
		gens = append(gens, gen{name, Profiles(name), DefaultSeed})
	}
	for _, c := range FuzzCorpus() {
		gens = append(gens, gen{c.Label, FuzzProfile(c.Seed, c.Knobs), c.Seed})
	}
	for i, g := range gens {
		fresh := Generate(g.p, n, g.seed).Trace
		other := gens[(i+1)%len(gens)]
		for _, sp := range []struct {
			what string
			g    gen
			n    int
		}{{"a longer trace", g, 2 * n}, {"a shorter trace", g, n / 4}, {other.name, other, n}} {
			pool := new(Spares)
			pool.Release(pool.Generate(sp.g.p, sp.n, sp.g.seed))
			got := pool.Generate(g.p, n, g.seed).Trace
			if got.Len() != fresh.Len() || got.Cap() != n+genSlack || got.Checksum() != fresh.Checksum() {
				t.Fatalf("%s over %s: Len %d, Cap %d, Checksum %#x; fresh: %d, %d, %#x",
					g.name, sp.what, got.Len(), got.Cap(), got.Checksum(), fresh.Len(), n+genSlack, fresh.Checksum())
			}
		}
	}
}

// BenchmarkGenerate measures trace generation and reports bytes allocated
// per generated instruction — the figure of merit for the one-allocation
// builder (a packed instruction is about 15 bytes; the chase rings, the
// map of stored words and the builder's indexes add a workload-fixed
// overhead on top). "fresh" builds every trace on new memory; "spare"
// builds each over the one before it, released to a pool, as a run's
// arena does, so its B/op is what generation allocates besides the
// trace.
func BenchmarkGenerate(b *testing.B) {
	const n = 200_000
	p := Profiles("mcf")
	for _, spare := range []bool{false, true} {
		name := "fresh"
		if spare {
			name = "spare"
		}
		b.Run(name, func(b *testing.B) {
			var pool *Spares
			var w *Workload
			if spare {
				pool = new(Spares)
				w = pool.Generate(p, n, DefaultSeed)
			}
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w != nil {
					pool.Release(w)
				}
				if w = pool.Generate(p, n, DefaultSeed); w.Trace.Len() < n {
					b.Fatal("short trace")
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N)/float64(n), "bytes/inst")
		})
	}
}

// requireOracle fails unless Generate's trace for (p, n, seed) equals
// the oracle's (oracle_test.go) instruction for instruction, every
// field compared.
func requireOracle(t *testing.T, p Profile, n int, seed int64) {
	t.Helper()
	got := Generate(p, n, seed).Trace
	want := oracleGenerate(p, n, seed)
	if got.Len() != len(want) {
		t.Fatalf("%s n=%d seed=%d: %d instructions, oracle %d", p.Name, n, seed, got.Len(), len(want))
	}
	for i := range want {
		if in := got.At(i); in != want[i] {
			t.Fatalf("%s n=%d seed=%d: instruction %d is\n  %+v\nthe oracle's is\n  %+v",
				p.Name, n, seed, i, in, want[i])
		}
	}
}

// TestGenerateMatchesOracle pins that generating without a memory image
// changes no trace: every SPEC profile at lengths from one instruction
// to 200 000, the whole fuzz corpus at the fleet's length, and the
// degenerate shapes.
func TestGenerateMatchesOracle(t *testing.T) {
	for _, name := range AllSPECNames {
		for _, n := range []int{1, 1_000, 27_500, 200_000} {
			requireOracle(t, Profiles(name), n, DefaultSeed)
		}
	}
	for _, c := range FuzzCorpus() {
		requireOracle(t, FuzzProfile(c.Seed, c.Knobs), 35_000, c.Seed)
	}
	for _, p := range degenerateProfiles {
		requireOracle(t, p, 5_000, 1)
	}
	// A stream strided across the address space reads pointer words of
	// both rings out of walk order, which no chase load does.
	across := Profiles("mcf")
	across.Name = "stream-across-regions"
	across.StreamFrac, across.StreamStride = 0.3, 0x1000_0040
	requireOracle(t, across, 20_000, DefaultSeed)
}

// FuzzGenerateMatchesOracle widens TestGenerateMatchesOracle to any
// fuzz-family member: a seed, the four knobs (each folded into 0..100)
// and a length folded into 1..20 000.
func FuzzGenerateMatchesOracle(f *testing.F) {
	f.Add(int64(101), uint8(50), uint8(0), uint8(0), uint8(0), uint16(3_000))
	f.Add(int64(504), uint8(100), uint8(100), uint8(100), uint8(100), uint16(20_000))
	f.Add(int64(-7), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, sb, bl, mc, rs uint8, n uint16) {
		k := FuzzKnobs{SBPressure: int(sb) % 101, BranchOnLoad: int(bl) % 101,
			MissCluster: int(mc) % 101, RallyStarve: int(rs) % 101}
		requireOracle(t, FuzzProfile(seed, k), 1+int(n)%20_000, seed)
	})
}

// TestGenerateUnalignedPanics pins the alignment assertion the word map
// relies on: an access that is not 8-byte aligned would straddle words.
func TestGenerateUnalignedPanics(t *testing.T) {
	p := Profiles("swim")
	p.StreamStride = 4
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "unaligned") {
			t.Fatalf("Generate with a 4-byte stream stride: recover() = %v, want an unaligned-access panic", r)
		}
	}()
	Generate(p, 1_000, DefaultSeed)
}

// TestGenerateCorpusAllocation pins what generating the fuzz corpus at
// the fleet's length allocates. The traces alone were 27 MiB unpacked
// and are about 10 MiB packed; while generation still built a memory
// image, the total was 139 MiB.
func TestGenerateCorpusAllocation(t *testing.T) {
	const limit = 64 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, c := range FuzzCorpus() {
		Fuzz(c.Seed, c.Knobs, 35_000)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("generating the fuzz corpus at n=35000 allocated %d MiB, want at most %d MiB",
			got>>20, limit>>20)
	}
}
