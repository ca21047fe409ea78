package pipeline

// HorizonFar is the distance Horizon jumps when no event is known. It is
// large enough that a healthy simulation never legitimately reaches it
// between events, and small enough that a buggy core hits its watchdog
// bound after a handful of empty jumps instead of wrapping the clock.
const HorizonFar = int64(1_000_000)

// Horizon accumulates candidate future event cycles and yields the
// earliest one: the next cycle at which a cycle-driven core's state can
// possibly change. Cores use it to skip dead cycles — stretches where
// every pipe is stalled on an event whose completion time is already
// known (a miss return, a rally wake-up, a staged instruction's earliest
// issue cycle) — instead of burning one loop iteration per cycle.
//
// The contract that keeps skip-ahead byte-identical to strict
// cycle-by-cycle stepping: every state change the core can make must be
// covered by an Observe call — if a subsystem can make progress at cycle
// c and nothing else changes before c, some Observe(c') with c' <= c must
// have been issued. Observing too early is harmless (the core re-checks
// and re-observes); failing to observe an event skips it and diverges.
// See docs/ARCHITECTURE.md, "The cycle loop contract".
type Horizon struct {
	now  int64
	next int64
}

// Reset starts a new decision at the current cycle.
func (h *Horizon) Reset(now int64) {
	h.now = now
	h.next = now + HorizonFar
}

// Observe offers a candidate event cycle. Candidates at or before the
// current cycle are ignored: they describe work that was already
// attempted this cycle, not a future event.
func (h *Horizon) Observe(c int64) {
	if c > h.now && c < h.next {
		h.next = c
	}
}

// ObserveNext records that progress is possible on the very next cycle
// (e.g. a store buffer with a drainable head retries every cycle).
func (h *Horizon) ObserveNext() {
	if h.now+1 < h.next {
		h.next = h.now + 1
	}
}

// Next returns the cycle to jump to: the earliest observed future event,
// clamped to at least one cycle of progress.
func (h *Horizon) Next() int64 {
	if h.next <= h.now {
		return h.now + 1
	}
	return h.next
}
