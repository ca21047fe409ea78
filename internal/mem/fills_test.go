package mem

import (
	"math/rand"
	"testing"
)

// refFills is the map the fill table replaces, with the hierarchy's
// original lazy-delete probe.
type refFills map[uint64]int64

func (m refFills) probe(line uint64, cycle int64) int64 {
	done, ok := m[line]
	if !ok {
		return 0
	}
	if done <= cycle {
		delete(m, line)
		return 0
	}
	return done
}

// TestFillTableMatchesMap drives the fill table and a map reference with
// the same random puts (overwrites included) and probes at non-monotonic
// cycles, so stale entries are deleted by some probes and survive others
// that come at earlier cycles. Every probe must agree, and so must the
// entry count after every step, which pins that stale entries are
// deleted exactly when the map deleted them. A small line universe keeps
// probe runs long and wrapping around the table.
func TestFillTableMatchesMap(t *testing.T) {
	for _, lines := range []int{8, 200, 5000} {
		rng := rand.New(rand.NewSource(int64(lines)))
		var tab fillTable
		ref := refFills{}
		for step := 0; step < 200_000; step++ {
			line := uint64(rng.Intn(lines)) * 128
			if rng.Intn(64) == 0 {
				line = ^uint64(0) &^ 127 // the topmost line: the largest key
			}
			cycle := int64(rng.Intn(10_000))
			switch rng.Intn(3) {
			case 0:
				done := cycle + int64(rng.Intn(1000))
				tab.put(line, done)
				ref[line] = done
			default:
				if got, want := tab.probe(line, cycle), ref.probe(line, cycle); got != want {
					t.Fatalf("lines=%d step %d: probe(%#x, %d) = %d, map says %d", lines, step, line, cycle, got, want)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("lines=%d step %d: table holds %d fills, map %d", lines, step, tab.n, len(ref))
			}
		}
		for line, done := range ref {
			if got := tab.probe(line, done-1); got != done {
				t.Fatalf("lines=%d: surviving fill %#x reads %d, want %d", lines, line, got, done)
			}
		}
		tab.reset()
		if tab.n != 0 || tab.probe(0, 0) != 0 {
			t.Fatalf("lines=%d: reset left fills behind", lines)
		}
	}
}
