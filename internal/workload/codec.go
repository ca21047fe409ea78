// Trace serialization. Workloads are deterministic, but pinning a trace
// to a file decouples regression baselines from generator changes and
// lets externally produced traces (e.g. converted from a real
// instruction-trace format) run on the simulator. The format is a simple
// little-endian binary stream: a name, a seed section of the memory
// words loads observe before any store writes them (chase rings, the
// hot region), and the instructions. Every load already carries the
// value it reads, so the simulator needs no memory image: ReadTrace
// checks the seed section and skips it.
package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"icfp/internal/isa"
)

// traceMagic identifies the file format; bump the version on change.
const traceMagic = "ICFPTRC1"

// maxTraceInsts bounds the instruction and seed counts a trace file may
// declare.
const maxTraceInsts = 1 << 28

// WriteTrace serializes a workload (trace plus the memory words its loads
// observe) to w.
func WriteTrace(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	var scratch [8]byte

	writeU64 := func(v uint64) error {
		le.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}

	name := []byte(wl.Name)
	if err := writeU64(uint64(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}

	// Memory seed: words that loads observe before any store writes them.
	seeds := seedWords(wl)
	if err := writeU64(uint64(len(seeds))); err != nil {
		return err
	}
	for _, s := range seeds {
		if err := writeU64(s.addr); err != nil {
			return err
		}
		if err := writeU64(s.val); err != nil {
			return err
		}
	}

	if err := writeU64(uint64(wl.Trace.Len())); err != nil {
		return err
	}
	for i := 0; i < wl.Trace.Len(); i++ {
		in := wl.Trace.At(i)
		flags := uint64(in.Op)
		if in.Taken {
			flags |= 1 << 8
		}
		flags |= uint64(in.Dst) << 16
		flags |= uint64(in.Src1) << 24
		flags |= uint64(in.Src2) << 32
		flags |= uint64(in.Size) << 40
		for _, v := range [...]uint64{flags, in.PC, in.Addr, in.Val, in.Target} {
			if err := writeU64(v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

type seedWord struct{ addr, val uint64 }

// seedWords extracts the memory words loads observe before any store to
// the same address: the initial memory contents the trace reads.
func seedWords(wl *Workload) []seedWord {
	written := map[uint64]bool{}
	seeded := map[uint64]bool{}
	var out []seedWord
	for i := 0; i < wl.Trace.Len(); i++ {
		in := wl.Trace.At(i)
		switch in.Op {
		case isa.OpStore:
			written[in.Addr] = true
		case isa.OpLoad:
			if !written[in.Addr] && !seeded[in.Addr] && in.Val != 0 {
				seeded[in.Addr] = true
				out = append(out, seedWord{in.Addr, in.Val})
			}
		}
	}
	return out
}

// ReadTrace deserializes a workload written by WriteTrace. The resulting
// workload has no Prewarm hook; callers warm caches via Config.WarmupInsts.
func ReadTrace(r io.Reader) (*Workload, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("workload: bad magic %q", magic)
	}
	var scratch [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}

	nameLen, err := readU64()
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("workload: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}

	nSeeds, err := readU64()
	if err != nil {
		return nil, err
	}
	// Each seed word is a load's, so there are at most as many as the
	// trace may hold instructions.
	if nSeeds > maxTraceInsts {
		return nil, fmt.Errorf("workload: implausible seed count %d", nSeeds)
	}
	if _, err := br.Discard(int(nSeeds) * 16); err != nil {
		return nil, fmt.Errorf("workload: seed section: %w", err)
	}

	n, err := readU64()
	if err != nil {
		return nil, err
	}
	if n > maxTraceInsts {
		return nil, fmt.Errorf("workload: implausible trace length %d", n)
	}
	// Grow in bounded chunks rather than trusting the length field with a
	// single up-front allocation: a corrupt or hostile header can claim up
	// to 2^28 instructions (multi-GB) while supplying only a few bytes, and
	// the allocation must stay proportional to data actually read.
	const chunk = 1 << 16
	insts := make([]isa.Inst, 0, min(n, chunk))
	for i := uint64(0); i < n; i++ {
		var vals [5]uint64
		for k := range vals {
			if vals[k], err = readU64(); err != nil {
				return nil, fmt.Errorf("workload: instruction %d: %w", i, err)
			}
		}
		flags := vals[0]
		insts = append(insts, isa.Inst{
			Op:     isa.Op(flags & 0xFF),
			Taken:  flags&(1<<8) != 0,
			Dst:    isa.Reg(flags >> 16),
			Src1:   isa.Reg(flags >> 24),
			Src2:   isa.Reg(flags >> 32),
			Size:   uint8(flags >> 40),
			PC:     vals[1],
			Addr:   vals[2],
			Val:    vals[3],
			Target: vals[4],
		})
	}
	return &Workload{
		Name:  string(name),
		Trace: &isa.Trace{Name: string(name), Insts: insts},
	}, nil
}
