package workload

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestGenerateSingleAllocation pins the builder's one-allocation
// contract: the trace backing is sized n+genSlack up front and never
// regrows. A regrowth would show as a capacity different from the
// preallocation (append doubles), so capacity equality is the witness.
func TestGenerateSingleAllocation(t *testing.T) {
	for _, name := range AllSPECNames {
		for _, n := range []int{1, 1000, 50_000} {
			w := Generate(Profiles(name), n, DefaultSeed)
			if got, want := cap(w.Trace.Insts), n+genSlack; got != want {
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

// BenchmarkGenerate measures trace generation and reports bytes allocated
// per generated instruction — the figure of merit for the one-allocation
// builder (an isa.Inst is 40 bytes; the chase rings and the map of stored
// words add a workload-fixed overhead on top).
func BenchmarkGenerate(b *testing.B) {
	const n = 200_000
	p := Profiles("mcf")
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := Generate(p, n, DefaultSeed); w.Trace.Len() < n {
			b.Fatal("short trace")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N)/float64(n), "bytes/inst")
}

// requireOracle fails unless Generate's trace for (p, n, seed) equals
// the oracle's (oracle_test.go) instruction for instruction, every
// field compared.
func requireOracle(t *testing.T, p Profile, n int, seed int64) {
	t.Helper()
	got := Generate(p, n, seed).Trace.Insts
	want := oracleGenerate(p, n, seed)
	if len(got) != len(want) {
		t.Fatalf("%s n=%d seed=%d: %d instructions, oracle %d", p.Name, n, seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d seed=%d: instruction %d is\n  %+v\nthe oracle's is\n  %+v",
				p.Name, n, seed, i, got[i], want[i])
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
// the fleet's length allocates. The traces alone are 27 MiB; while
// generation still built a memory image, the total was 139 MiB.
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
