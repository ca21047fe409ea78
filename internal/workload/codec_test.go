package workload

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"icfp/internal/isa"
)

func TestTraceRoundTrip(t *testing.T) {
	orig := SPEC("mcf", 20_000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got.Name != orig.Name {
		t.Fatalf("name %q != %q", got.Name, orig.Name)
	}
	if got.Trace.Len() != orig.Trace.Len() {
		t.Fatalf("length %d != %d", got.Trace.Len(), orig.Trace.Len())
	}
	for i := 0; i < orig.Trace.Len(); i++ {
		a, b := orig.Trace.At(i), got.Trace.At(i)
		if a != b {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestTraceSeedsChaseMemory(t *testing.T) {
	// The seed section must carry the value of every load that reads a
	// word before any store writes it (the chase pointers, the hot
	// region), so the file describes the memory its loads observe.
	orig := SPEC("vpr", 20_000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	seeds := readSeedSection(t, buf.Bytes())
	if _, err := ReadTrace(&buf); err != nil {
		t.Fatal(err)
	}
	written := map[uint64]bool{}
	checked := 0
	for i := 0; i < orig.Trace.Len(); i++ {
		in := orig.Trace.At(i)
		switch in.Op {
		case isa.OpStore:
			written[in.Addr] = true
		case isa.OpLoad:
			if !written[in.Addr] && in.Val != 0 {
				if v, ok := seeds[in.Addr]; !ok || v != in.Val {
					t.Fatalf("inst %d: seed[%#x]=%#x (present %v), trace value %#x", i, in.Addr, v, ok, in.Val)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pre-store load read a nonzero word; the test checks nothing")
	}
}

// readSeedSection decodes the seed section of a trace file written by
// WriteTrace: the words its loads observe before any store writes them.
func readSeedSection(t *testing.T, data []byte) map[uint64]uint64 {
	t.Helper()
	le := binary.LittleEndian
	p := data[len(traceMagic):]
	nameLen := le.Uint64(p)
	p = p[8+nameLen:]
	n := le.Uint64(p)
	p = p[8:]
	seeds := make(map[uint64]uint64, n)
	for k := uint64(0); k < n; k++ {
		addr, val := le.Uint64(p), le.Uint64(p[8:])
		if _, dup := seeds[addr]; dup {
			t.Fatalf("seed section repeats address %#x", addr)
		}
		seeds[addr] = val
		p = p[16:]
	}
	return seeds
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty input must be rejected")
	}
	// Truncated stream after the header.
	var buf bytes.Buffer
	_ = WriteTrace(&buf, SPEC("mesa", 1_000))
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace must be rejected")
	}
}

// TestReadTraceRejectsBadOperands pins that an opcode or register the
// timing models cannot index is an error naming the instruction, not a
// trace that panics whoever reads it.
func TestReadTraceRejectsBadOperands(t *testing.T) {
	ok := isa.Inst{Op: isa.OpALU, Dst: isa.IntReg(1), Src1: isa.FPReg(31), Src2: isa.RegNone}
	for _, tc := range []struct {
		name string
		bad  isa.Inst
		want string
	}{
		{"opcode", isa.Inst{Op: 0x20, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}, "instruction 1: opcode 32 out of range"},
		{"dst", isa.Inst{Op: isa.OpALU, Dst: isa.NumRegs, Src1: isa.RegNone, Src2: isa.RegNone}, "instruction 1: register 64 out of range"},
		{"src2", isa.Inst{Op: isa.OpALU, Dst: isa.RegNone, Src1: isa.RegNone, Src2: 254}, "instruction 1: register 254 out of range"},
	} {
		var buf bytes.Buffer
		wl := &Workload{Name: "bad", Trace: isa.NewTrace("", []isa.Inst{ok, tc.bad})}
		if err := WriteTrace(&buf, wl); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(&buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadTrace error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
