package workload

import (
	"bytes"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the trace decoder. The decoder
// handles untrusted files (externally converted traces, store payloads),
// so its only acceptable failure mode is a returned error: no panic, no
// allocation proportional to a hostile length field rather than to the
// bytes actually supplied. Accepted inputs must re-encode and decode
// again cleanly and hold only opcodes and registers the simulator can
// index (the seed section is re-derived from the trace, so
// byte-identity is only guaranteed for writer-produced inputs).
func FuzzReadTrace(f *testing.F) {
	// Seed with a small real trace plus truncations and header
	// corruptions of it, so the mutator starts inside the format.
	var buf bytes.Buffer
	seed := Fuzz(101, FuzzKnobs{SBPressure: 50}, 200)
	if err := WriteTrace(&buf, seed); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(traceMagic)+4])
	f.Add([]byte(traceMagic))
	f.Add([]byte("ICFPTRC9 not the right magic"))
	// Claim a huge trace length while supplying no instruction bytes.
	hostile := append([]byte{}, valid[:len(traceMagic)]...)
	hostile = append(hostile, 0, 0, 0, 0, 0, 0, 0, 0)  // name len 0
	hostile = append(hostile, 0, 0, 0, 0, 0, 0, 0, 0)  // seed count 0
	hostile = append(hostile, 0, 0, 0, 0, 0, 16, 0, 0) // trace len 2^44: over cap
	f.Add(hostile)
	// The first instruction's opcode byte past the last class: valid
	// framing, invalid content.
	badOp := append([]byte{}, valid...)
	badOp[len(valid)-seed.Trace.Len()*5*8] = 0x20
	f.Add(badOp)

	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range wl.Trace.Len() {
			if err := checkInst(wl.Trace.At(i)); err != nil {
				t.Fatalf("accepted instruction %d: %v", i, err)
			}
		}
		// Successfully decoded inputs must re-encode deterministically.
		var out bytes.Buffer
		if err := WriteTrace(&out, wl); err != nil {
			t.Fatalf("re-encoding a decoded trace failed: %v", err)
		}
		back, err := ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded trace failed: %v", err)
		}
		if back.Trace.Len() != wl.Trace.Len() {
			t.Fatalf("round trip changed length: %d -> %d", wl.Trace.Len(), back.Trace.Len())
		}
	})
}
