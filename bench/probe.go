package main

import "time"

// probeWords is the size of the probe's buffer, 64 MB: larger than the
// host's last-level cache, so its reads go to memory, as the simulator's
// trace and memory-image reads do.
const probeWords = 8 << 20

// probeReads is the number of reads one probe makes, about 15 ms.
const probeReads = 1 << 20

// probeQuiet is the probe's time on this benchmark's reference host, a
// 2-core Xeon VM, when no other tenant loads its memory.
const probeQuiet = 12.0 // ms

// quiet returns the factor that adjusts a time measured beside a probe of
// probeMS to a quiet host. Operations slow with the memory contention the
// probe measures, so time × quiet(probe) reads steadily on a shared host
// where the raw time swings by a third; the program under test has no
// part in the probe, so a change that speeds the program lowers the
// adjusted time by the same share as the raw one.
func quiet(probeMS float64) float64 {
	if probeMS <= 0 {
		return 1
	}
	return probeQuiet / probeMS
}

// probe times a fixed walk of random reads over a buffer the benchmark
// owns. On a host shared with other tenants the speed of memory swings
// with their load, and every operation's time with it; a probe taken on
// each side of a round of operations measures the machine the round ran
// on, independently of the program under test.
type probe struct {
	buf  []uint64
	seed uint64
}

func newProbe() *probe {
	p := &probe{buf: make([]uint64, probeWords), seed: 0x9e3779b97f4a7c15}
	for i := range p.buf { // touch every page before the first timing
		p.buf[i] = uint64(i)
	}
	return p
}

// run times one walk.
func (p *probe) run() time.Duration {
	start := time.Now()
	x, sum := p.seed, uint64(0)
	for range probeReads {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		sum += p.buf[x%probeWords]
	}
	p.seed += sum | 1 // a data dependence the compiler cannot drop
	return time.Since(start)
}
