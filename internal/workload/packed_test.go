package workload

import (
	"runtime"
	"testing"
	"unsafe"

	"icfp/internal/isa"
)

// packedSums pins, for every SPEC profile and fuzz-corpus member at
// 20 000 instructions and every Figure 1 scenario, the workload's name,
// the trace length and isa.Trace.Checksum, as the generator produced
// them when traces were stored one 40-byte isa.Inst per instruction.
// Checksum covers every field of every instruction, so a match pins the
// packed trace's decode field for field.
var packedSums = []struct {
	kind, name string
	wlName     string
	n          int
	checksum   uint64
}{
	{"spec", "ammp", "ammp", 20077, 0xba6cea5b8ff40233},
	{"spec", "applu", "applu", 20077, 0xe6c6048f527e8723},
	{"spec", "apsi", "apsi", 20082, 0x4f6f013787f502df},
	{"spec", "art", "art", 20004, 0xaa2d8f7d5fce7f32},
	{"spec", "equake", "equake", 20051, 0xb8278dbc578d9923},
	{"spec", "facerec", "facerec", 20031, 0x258271f44e37c01e},
	{"spec", "galgel", "galgel", 20004, 0x3ed629d7795e1e5b},
	{"spec", "lucas", "lucas", 20066, 0x278bb8ecf22c98cc},
	{"spec", "mesa", "mesa", 20004, 0x5c58b6a62b04515},
	{"spec", "mgrid", "mgrid", 20076, 0x539d395a536c0194},
	{"spec", "swim", "swim", 20035, 0xd31d60fe99e17841},
	{"spec", "wupwise", "wupwise", 20079, 0xf2b3ad892cda3f27},
	{"spec", "bzip2", "bzip2", 20066, 0x8c1c00621a079768},
	{"spec", "crafty", "crafty", 20056, 0x39df901bcba3b30a},
	{"spec", "eon", "eon", 20064, 0x7437b709f0335bab},
	{"spec", "gap", "gap", 20082, 0x1b2535d794fc56ec},
	{"spec", "gcc", "gcc", 20056, 0x93e6a4264ffeef3d},
	{"spec", "gzip", "gzip", 20056, 0xf81f9e3d988635da},
	{"spec", "mcf", "mcf", 20016, 0xdce38dc222dabbef},
	{"spec", "parser", "parser", 20056, 0x27674b1dc7892be7},
	{"spec", "perlbmk", "perlbmk", 20056, 0x9cf4b6f53682ebae},
	{"spec", "twolf", "twolf", 20070, 0xf25bf8ddbc290eb4},
	{"spec", "vortex", "vortex", 20056, 0x16e769aa1710dcfd},
	{"spec", "vpr", "vpr", 20056, 0xbfe7f5029f1e3b81},
	{"fuzz", "sb-moderate", "fuzz-s101-sb50-bl0-mc0-rs0", 20025, 0x5356d3b8a00e2afe},
	{"fuzz", "sb-heavy", "fuzz-s102-sb85-bl0-mc0-rs0", 20030, 0x5c5c54f01f246897},
	{"fuzz", "sb-extreme", "fuzz-s103-sb100-bl0-mc0-rs0", 20021, 0x515844e379e61218},
	{"fuzz", "sb-poisoned", "fuzz-s104-sb70-bl0-mc30-rs0", 20031, 0x9b57a51cc81045d4},
	{"fuzz", "bl-moderate", "fuzz-s201-sb0-bl50-mc0-rs0", 20031, 0x61a5aec7565ac429},
	{"fuzz", "bl-heavy", "fuzz-s202-sb0-bl90-mc0-rs0", 20042, 0x91149acf37079344},
	{"fuzz", "bl-noisy", "fuzz-s203-sb0-bl100-mc0-rs0", 20038, 0xef20eca920d73ed7},
	{"fuzz", "bl-under-sb", "fuzz-s204-sb60-bl60-mc0-rs0", 20078, 0x9b270fef5ff7f127},
	{"fuzz", "mc-moderate", "fuzz-s301-sb0-bl0-mc50-rs0", 20021, 0x11224015a2f0687},
	{"fuzz", "mc-heavy", "fuzz-s302-sb0-bl0-mc85-rs0", 20016, 0xad2946de583bdd26},
	{"fuzz", "mc-extreme", "fuzz-s303-sb0-bl0-mc100-rs0", 20081, 0xaeb7f49b56231c67},
	{"fuzz", "mc-branchy", "fuzz-s304-sb0-bl40-mc70-rs0", 20017, 0x4a7928c57c34c1d6},
	{"fuzz", "rs-moderate", "fuzz-s401-sb0-bl0-mc0-rs50", 20016, 0x198e462056560be8},
	{"fuzz", "rs-heavy", "fuzz-s402-sb0-bl0-mc0-rs85", 20044, 0x9d570a7468074c4c},
	{"fuzz", "rs-extreme", "fuzz-s403-sb0-bl0-mc0-rs100", 20045, 0xa3c0af03e74b15c3},
	{"fuzz", "rs-clustered", "fuzz-s404-sb0-bl0-mc50-rs70", 20026, 0x264a9bef363231f8},
	{"fuzz", "all-a", "fuzz-s501-sb60-bl60-mc60-rs60", 20073, 0x4c46daaced8490ee},
	{"fuzz", "all-b", "fuzz-s502-sb80-bl40-mc90-rs30", 20076, 0xeccc932fbad68f82},
	{"fuzz", "all-c", "fuzz-s503-sb30-bl90-mc40-rs80", 20003, 0x57ed80fdfbf32598},
	{"fuzz", "all-d", "fuzz-s504-sb100-bl100-mc100-rs100", 20060, 0xd2bdbb16f8fb6a49},
	{"scenario", "a-lone-l2", "a-lone-l2", 42, 0x7365a79368094e39},
	{"scenario", "b-independent-l2", "b-independent-l2", 44, 0x3797eaa6af6a8646},
	{"scenario", "c-dependent-l2", "c-dependent-l2", 41, 0x53e7f50ab763df2b},
	{"scenario", "d-chains", "d-chains", 40, 0x6db119b71aab5fa6},
	{"scenario", "e-dmiss-indep-l2", "e-dmiss-indep-l2", 43, 0x4021cc7c04c6b6b5},
	{"scenario", "f-dmiss-dep-l2", "f-dmiss-dep-l2", 43, 0x9baa3316e9c45a6f},
}

// TestPackedTracesDecodeAsBefore pins the compact trace record as
// lossless: each workload keeps its name and decodes to exactly the
// instructions it did before packing.
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
		if w.Name != c.wlName {
			t.Errorf("%s %s: workload named %q, want %q", c.kind, c.name, w.Name, c.wlName)
		}
		if got := w.Trace.Len(); got != c.n {
			t.Errorf("%s %s: %d instructions, want %d", c.kind, c.name, got, c.n)
		}
		if got := w.Trace.Checksum(); got != c.checksum {
			t.Errorf("%s %s: checksum %#x, want %#x", c.kind, c.name, got, c.checksum)
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
