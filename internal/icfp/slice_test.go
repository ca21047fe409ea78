package icfp

import "testing"

func TestSliceAppendAndCapacity(t *testing.T) {
	s := newSliceBuffer(3)
	for i := 0; i < 3; i++ {
		if _, ok := s.Append(&sliceEntry{idx: i}); !ok {
			t.Fatalf("append %d failed", i)
		}
	}
	if !s.Full() {
		t.Fatal("must be full")
	}
	if _, ok := s.Append(&sliceEntry{}); ok {
		t.Fatal("append into a full buffer must fail")
	}
}

func TestSliceDeactivateReclaimsHead(t *testing.T) {
	s := newSliceBuffer(3)
	a, _ := s.Append(&sliceEntry{idx: 1})
	b, _ := s.Append(&sliceEntry{idx: 2})
	// Deactivating the middle entry does not reclaim (in-place sparsity).
	s.Deactivate(b, 10)
	if s.Len() != 2 {
		t.Fatalf("len = %d; tail entry must stay until head reclaims", s.Len())
	}
	// Deactivating the head reclaims both.
	s.Deactivate(a, 20)
	if s.Len() != 0 {
		t.Fatalf("len = %d after head reclaim", s.Len())
	}
	if !s.Empty() {
		t.Fatal("no active entries must remain")
	}
	// Reclaimed ids still answer Executed.
	if _, ok := s.Executed(a); !ok {
		t.Fatal("reclaimed entry must report executed")
	}
	if done, ok := s.Executed(b); !ok || done != 0 {
		// b was reclaimed from the head too; done is no longer tracked.
		_ = done
	}
}

func TestSliceExecutedStates(t *testing.T) {
	s := newSliceBuffer(4)
	a, _ := s.Append(&sliceEntry{idx: 1})
	b, _ := s.Append(&sliceEntry{idx: 2})
	if _, ok := s.Executed(b); ok {
		t.Fatal("active entry must not be executed")
	}
	s.Deactivate(b, 42)
	if done, ok := s.Executed(b); !ok || done != 42 {
		t.Fatalf("Executed(b) = %d,%v", done, ok)
	}
	_ = a
}

func TestSliceSetPoison(t *testing.T) {
	s := newSliceBuffer(4)
	a, _ := s.Append(&sliceEntry{idx: 1, poison: 0b01})
	if got := s.ActivePoison(); got != 0b01 {
		t.Fatalf("ActivePoison = %#b, want 0b01", got)
	}
	s.SetPoison(a, 0b10)
	if _, p, ok := s.State(a); !ok || p != 0b10 {
		t.Fatal("SetPoison must replace the vector")
	}
	if got := s.ActivePoison(); got != 0b10 {
		t.Fatalf("ActivePoison = %#b after SetPoison, want 0b10", got)
	}
	s.Deactivate(a, 1)
	if got := s.ActivePoison(); got != 0 {
		t.Fatalf("ActivePoison = %#b after Deactivate, want 0", got)
	}
}

func TestSliceClear(t *testing.T) {
	s := newSliceBuffer(4)
	s.Append(&sliceEntry{idx: 1})
	s.Append(&sliceEntry{idx: 2})
	s.Clear()
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("Clear must empty the buffer")
	}
	// Ids keep increasing monotonically after a clear.
	id, _ := s.Append(&sliceEntry{idx: 3})
	if id < 2 {
		t.Fatalf("id %d reused after clear", id)
	}
}

func TestSignatureBasics(t *testing.T) {
	sig := NewSignature(256)
	if sig.Probe(0x1000) {
		t.Fatal("empty signature must not hit")
	}
	sig.Insert(0x1000)
	if !sig.Probe(0x1000) {
		t.Fatal("inserted address must hit")
	}
	sig.Clear()
	if sig.Probe(0x1000) {
		t.Fatal("cleared signature must not hit")
	}
	if sig.Inserts != 1 || sig.Probes != 3 || sig.ProbeHits != 1 || sig.Clears != 1 {
		t.Fatalf("stats: %+v", *sig)
	}
}

func TestSignatureNoFalseNegatives(t *testing.T) {
	sig := NewSignature(1024)
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = uint64(0x4000_0000 + i*64)
		sig.Insert(addrs[i])
	}
	for _, a := range addrs {
		if !sig.Probe(a) {
			t.Fatalf("false negative for %#x", a)
		}
	}
}

func TestSignatureFalsePositiveRateBounded(t *testing.T) {
	sig := NewSignature(1024)
	for i := 0; i < 64; i++ {
		sig.Insert(uint64(0x4000_0000 + i*64))
	}
	fp := 0
	const probes = 2000
	for i := 0; i < probes; i++ {
		if sig.Probe(uint64(0x9000_0000 + i*64)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.25 {
		t.Fatalf("false positive rate %.2f too high for 64 inserts in 1024 bits", rate)
	}
}
