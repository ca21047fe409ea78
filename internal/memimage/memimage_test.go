package memimage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValueReads(t *testing.T) {
	m := New()
	if m.Read8(0x1234) != 0 {
		t.Error("unwritten byte must read as zero")
	}
	if m.Read64(0xdeadbeef) != 0 {
		t.Error("unwritten word must read as zero")
	}
	var z Image // zero value usable
	if z.Read8(1) != 0 {
		t.Error("zero-value image must read zero")
	}
	z.Write8(1, 7)
	if z.Read8(1) != 7 {
		t.Error("zero-value image must accept writes")
	}
}

func TestReadWrite8(t *testing.T) {
	m := New()
	m.Write8(100, 0xAB)
	if got := m.Read8(100); got != 0xAB {
		t.Errorf("Read8 = %#x", got)
	}
	if got := m.Read8(101); got != 0 {
		t.Errorf("neighbor byte = %#x, want 0", got)
	}
}

func TestReadWrite64RoundTrip(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64) bool {
		addr &= 0xFFFFFFFF // keep page count bounded
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrite64CrossesPage(t *testing.T) {
	m := New()
	addr := uint64(pageSize - 4) // straddles the first page boundary
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
	if m.PageCount() != 2 {
		t.Errorf("PageCount = %d, want 2", m.PageCount())
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Write64(0, 0x0807060504030201)
	for i := uint64(0); i < 8; i++ {
		if got := m.Read8(i); got != byte(i+1) {
			t.Errorf("byte %d = %#x, want %#x", i, got, i+1)
		}
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Error("empty image must have zero footprint")
	}
	m.Write8(0, 1)
	m.Write8(pageSize*10, 1)
	if m.PageCount() != 2 {
		t.Errorf("PageCount = %d, want 2", m.PageCount())
	}
	if m.Footprint() != 2*pageSize {
		t.Errorf("Footprint = %d", m.Footprint())
	}
}

func TestOverwrite(t *testing.T) {
	m := New()
	m.Write64(64, 1)
	m.Write64(64, 0xFFFFFFFFFFFFFFFF)
	if got := m.Read64(64); got != 0xFFFFFFFFFFFFFFFF {
		t.Errorf("overwrite read = %#x", got)
	}
}

// TestCursorMatchesImage replays one random mix of reads and writes —
// page-local, page-straddling, and reads of pages never written —
// through a cursor and straight into a second image: every read must
// agree, reads must not materialize pages, and the two images must end
// identical.
func TestCursorMatchesImage(t *testing.T) {
	viaCursor, direct := New(), New()
	c := NewCursor(viaCursor)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		addr := uint64(rng.Intn(8)) << pageShift
		switch rng.Intn(3) {
		case 0:
			addr += uint64(rng.Intn(pageSize/8)) * 8
		case 1:
			addr += pageSize - uint64(1+rng.Intn(7)) // straddles into the next page
		default:
			addr += uint64(rng.Intn(pageSize))
		}
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			c.Write64(addr, v)
			direct.Write64(addr, v)
		} else if got, want := c.Read64(addr), direct.Read64(addr); got != want {
			t.Fatalf("op %d: cursor read %#x at %#x, image %#x", i, got, addr, want)
		}
		if viaCursor.PageCount() != direct.PageCount() {
			t.Fatalf("op %d: cursor image has %d pages, direct %d", i, viaCursor.PageCount(), direct.PageCount())
		}
	}
	if viaCursor.Checksum() != direct.Checksum() {
		t.Fatal("images differ after the same writes")
	}
}
