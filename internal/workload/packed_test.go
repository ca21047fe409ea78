package workload

import (
	"bytes"
	"hash/fnv"
	"runtime"
	"testing"
	"unsafe"

	"icfp/internal/isa"
)

// packedSums pins, for every SPEC profile and fuzz-corpus member at
// 20 000 instructions and every Figure 1 scenario, the trace length,
// isa.Trace.Checksum and an FNV-64a hash of the WriteTrace bytes, as the
// generator produced them when traces were stored one 40-byte isa.Inst
// per instruction. Checksum covers every field of every instruction, so
// a match pins the packed trace's decode field for field.
var packedSums = []struct {
	kind, name string
	n          int
	checksum   uint64
	file       uint64
}{
	{"spec", "ammp", 20077, 0xba6cea5b8ff40233, 0xda936748d7274ef6},
	{"spec", "applu", 20077, 0xe6c6048f527e8723, 0x6e5742e81c437874},
	{"spec", "apsi", 20082, 0x4f6f013787f502df, 0x21af4666e79200c2},
	{"spec", "art", 20004, 0xaa2d8f7d5fce7f32, 0xef1a4b08ec9da092},
	{"spec", "equake", 20051, 0xb8278dbc578d9923, 0x73554febb5fce25a},
	{"spec", "facerec", 20031, 0x258271f44e37c01e, 0xf29f6fcd6ff678fc},
	{"spec", "galgel", 20004, 0x3ed629d7795e1e5b, 0x5f30e09f013d457},
	{"spec", "lucas", 20066, 0x278bb8ecf22c98cc, 0xd94784e9ed6a7dc6},
	{"spec", "mesa", 20004, 0x5c58b6a62b04515, 0x8937737d97cf1d07},
	{"spec", "mgrid", 20076, 0x539d395a536c0194, 0xb0c797745a2705f3},
	{"spec", "swim", 20035, 0xd31d60fe99e17841, 0x6df87d0fe2b23c58},
	{"spec", "wupwise", 20079, 0xf2b3ad892cda3f27, 0x50940cfd40e50a48},
	{"spec", "bzip2", 20066, 0x8c1c00621a079768, 0x2388d7472ecf3613},
	{"spec", "crafty", 20056, 0x39df901bcba3b30a, 0xf7dd344b100fe},
	{"spec", "eon", 20064, 0x7437b709f0335bab, 0x7e4f9c0210ff8221},
	{"spec", "gap", 20082, 0x1b2535d794fc56ec, 0x80f46a78ba6625c0},
	{"spec", "gcc", 20056, 0x93e6a4264ffeef3d, 0x28eeca5a4ef8978a},
	{"spec", "gzip", 20056, 0xf81f9e3d988635da, 0x79418c0588633d4f},
	{"spec", "mcf", 20016, 0xdce38dc222dabbef, 0xf9fb0fe67dd18f87},
	{"spec", "parser", 20056, 0x27674b1dc7892be7, 0x9f16827ad0083cb3},
	{"spec", "perlbmk", 20056, 0x9cf4b6f53682ebae, 0x95f98e4b2a99435b},
	{"spec", "twolf", 20070, 0xf25bf8ddbc290eb4, 0x6ca6b897d479dca3},
	{"spec", "vortex", 20056, 0x16e769aa1710dcfd, 0xf39487b632cb510d},
	{"spec", "vpr", 20056, 0xbfe7f5029f1e3b81, 0x1f4f4af6f4847609},
	{"fuzz", "sb-moderate", 20025, 0x5356d3b8a00e2afe, 0x8a34a956b570cc1},
	{"fuzz", "sb-heavy", 20030, 0x5c5c54f01f246897, 0xc3f8ff45b5f7fde},
	{"fuzz", "sb-extreme", 20021, 0x515844e379e61218, 0xd72369a46b934a32},
	{"fuzz", "sb-poisoned", 20031, 0x9b57a51cc81045d4, 0xa4d69aa4d2c408c},
	{"fuzz", "bl-moderate", 20031, 0x61a5aec7565ac429, 0xfe1b21ab5c21889a},
	{"fuzz", "bl-heavy", 20042, 0x91149acf37079344, 0x925921fa8452f78f},
	{"fuzz", "bl-noisy", 20038, 0xef20eca920d73ed7, 0xdbe3200dacd99e59},
	{"fuzz", "bl-under-sb", 20078, 0x9b270fef5ff7f127, 0x6f71c9216f713027},
	{"fuzz", "mc-moderate", 20021, 0x11224015a2f0687, 0xc8f4e3820569641b},
	{"fuzz", "mc-heavy", 20016, 0xad2946de583bdd26, 0x5e286cfc81b100aa},
	{"fuzz", "mc-extreme", 20081, 0xaeb7f49b56231c67, 0x23e6336e73fd8702},
	{"fuzz", "mc-branchy", 20017, 0x4a7928c57c34c1d6, 0xea3e98855794a075},
	{"fuzz", "rs-moderate", 20016, 0x198e462056560be8, 0xd393b81d03917020},
	{"fuzz", "rs-heavy", 20044, 0x9d570a7468074c4c, 0x156bf89bb3494dc7},
	{"fuzz", "rs-extreme", 20045, 0xa3c0af03e74b15c3, 0xa449fb3eefd29ff3},
	{"fuzz", "rs-clustered", 20026, 0x264a9bef363231f8, 0x7822f1c177c00654},
	{"fuzz", "all-a", 20073, 0x4c46daaced8490ee, 0x6bc49e648fbbd1ec},
	{"fuzz", "all-b", 20076, 0xeccc932fbad68f82, 0x37c6e13cca832e34},
	{"fuzz", "all-c", 20003, 0x57ed80fdfbf32598, 0xafc5b5d12b61224f},
	{"fuzz", "all-d", 20060, 0xd2bdbb16f8fb6a49, 0x5e036200c7ddd649},
	{"scenario", "a-lone-l2", 42, 0x7365a79368094e39, 0x2c3c6fac2b6a431},
	{"scenario", "b-independent-l2", 44, 0x3797eaa6af6a8646, 0xcf556d07016c0384},
	{"scenario", "c-dependent-l2", 41, 0x53e7f50ab763df2b, 0xb9ed3f1d051f8ffc},
	{"scenario", "d-chains", 40, 0x6db119b71aab5fa6, 0xb77dcac4d1fb20bd},
	{"scenario", "e-dmiss-indep-l2", 43, 0x4021cc7c04c6b6b5, 0x9150af1a98d2269a},
	{"scenario", "f-dmiss-dep-l2", 43, 0x9baa3316e9c45a6f, 0x2ee1952cb0c468ac},
}

// TestPackedTracesDecodeAsBefore pins the compact trace record as
// lossless: each workload decodes to exactly the instructions, and
// serializes to exactly the bytes, it did before packing.
func TestPackedTracesDecodeAsBefore(t *testing.T) {
	for _, c := range packedSums {
		var w *Workload
		switch c.kind {
		case "spec":
			w = Generate(Profiles(c.name), 20_000, DefaultSeed)
		case "fuzz":
			fc, ok := FuzzCorpusMember(c.name)
			if !ok {
				t.Fatalf("no fuzz-corpus member %q", c.name)
			}
			w = Fuzz(fc.Seed, fc.Knobs, 20_000)
		case "scenario":
			w = NewScenario(Scenario(c.name))
		}
		if got := w.Trace.Len(); got != c.n {
			t.Errorf("%s %s: %d instructions, want %d", c.kind, c.name, got, c.n)
		}
		if got := w.Trace.Checksum(); got != c.checksum {
			t.Errorf("%s %s: checksum %#x, want %#x", c.kind, c.name, got, c.checksum)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, w); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != c.file {
			t.Errorf("%s %s: trace file hash %#x, want %#x", c.kind, c.name, got, c.file)
		}
		var in isa.Inst
		for i := range w.Trace.Len() {
			if w.Trace.Decode(i, &in); in != w.Trace.At(i) {
				t.Fatalf("%s %s instruction %d: Decode %+v, At %+v", c.kind, c.name, i, in, w.Trace.At(i))
			}
		}
	}
}

// instBytes is the size of one unpacked instruction record.
const instBytes = int(unsafe.Sizeof(isa.Inst{}))

// TestTraceBytesPerInst pins the compact record's footprint: every SPEC
// profile's trace at 230 000 instructions (the sampled benchmark's
// length) holds at most 16 bytes per instruction, capacity included.
// Generating it allocates, all told, less than the unpacked records
// alone would (40 bytes each), so no full-length []isa.Inst is ever
// built along the way.
func TestTraceBytesPerInst(t *testing.T) {
	const n = 230_000
	for _, name := range AllSPECNames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := Generate(Profiles(name), n, DefaultSeed)
		runtime.ReadMemStats(&after)
		tr := w.Trace
		if per := float64(tr.Bytes()) / float64(tr.Len()); per > 16 {
			t.Errorf("%s: %.2f bytes per instruction, want <= 16", name, per)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(instBytes*tr.Len()) {
			t.Errorf("%s: generating %d instructions allocated %d bytes, no less than %d unpacked records",
				name, tr.Len(), got, tr.Len())
		}
	}
}

// TestReadTraceBuildsPacked pins that reading a trace file, too, packs
// as it goes: decoding a 230 000-instruction file allocates less than
// its unpacked records alone would.
func TestReadTraceBuildsPacked(t *testing.T) {
	w := Generate(Profiles("mcf"), 230_000, DefaultSeed)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, w); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace.Checksum() != w.Trace.Checksum() {
		t.Fatal("read trace differs from the one written")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(instBytes*w.Trace.Len()) {
		t.Errorf("reading %d instructions allocated %d bytes, no less than their unpacked records",
			w.Trace.Len(), alloc)
	}
}
