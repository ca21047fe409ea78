package workload

import (
	"testing"

	"icfp/internal/isa"
)

func TestGenerateDeterministic(t *testing.T) {
	p := Profiles("mcf")
	w1 := Generate(p, 2000, 7)
	w2 := Generate(p, 2000, 7)
	if w1.Trace.Len() != w2.Trace.Len() {
		t.Fatal("same seed must give same length")
	}
	for i := 0; i < w1.Trace.Len(); i++ {
		if *w1.Trace.At(i) != *w2.Trace.At(i) {
			t.Fatalf("instruction %d differs between identical generations", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	p := Profiles("gcc")
	w1 := Generate(p, 2000, 1)
	w2 := Generate(p, 2000, 2)
	same := 0
	n := w1.Trace.Len()
	if w2.Trace.Len() < n {
		n = w2.Trace.Len()
	}
	for i := 0; i < n; i++ {
		if *w1.Trace.At(i) == *w2.Trace.At(i) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateLength(t *testing.T) {
	w := SPEC("gzip", 5000)
	if w.Trace.Len() < 5000 || w.Trace.Len() > 5200 {
		t.Fatalf("trace length %d not within one iteration of request", w.Trace.Len())
	}
}

func TestTraceEndsWithFallthrough(t *testing.T) {
	w := SPEC("bzip2", 1000)
	last := w.Trace.At(w.Trace.Len() - 1)
	if last.Op == isa.OpBranch && last.Taken {
		t.Fatal("final branch must fall through")
	}
}

func TestLoadValuesMatchMemoryImage(t *testing.T) {
	// Every load's recorded value must equal the last value a store
	// wrote to its address, replaying the stores in trace order.
	w := SPEC("mcf", 20000)
	type pending struct{ addr, val uint64 }
	written := map[uint64]uint64{}
	for i := 0; i < w.Trace.Len(); i++ {
		in := w.Trace.At(i)
		switch in.Op {
		case isa.OpStore:
			written[in.Addr] = in.Val
		case isa.OpLoad:
			if v, ok := written[in.Addr]; ok && v != in.Val {
				t.Fatalf("inst %d: load[%#x] = %#x but last store wrote %#x", i, in.Addr, in.Val, v)
			}
		}
	}
	_ = pending{}
}

func TestChaseLoadsAreDependent(t *testing.T) {
	w := SPEC("mcf", 20000)
	chase := 0
	for i := 0; i < w.Trace.Len(); i++ {
		in := w.Trace.At(i)
		if in.Op == isa.OpLoad && in.Src1 == regChase && in.Dst == regChase {
			chase++
			// Value loaded must be the address of some future chase load.
			if in.Val < chaseBase {
				t.Fatalf("chase load %d value %#x not a chase pointer", i, in.Val)
			}
		}
	}
	if chase == 0 {
		t.Fatal("mcf profile must contain chase loads")
	}
}

func TestChaseWalkIsConsistent(t *testing.T) {
	// Each chase load's address must equal the previous chase load's value.
	w := SPEC("vpr", 20000)
	var prevVal uint64
	havePrev := false
	for i := 0; i < w.Trace.Len(); i++ {
		in := w.Trace.At(i)
		if in.Op == isa.OpLoad && in.Src1 == regChase && in.Dst == regChase {
			if havePrev && in.Addr != prevVal {
				t.Fatalf("chase load %d at %#x but previous pointer was %#x", i, in.Addr, prevVal)
			}
			prevVal = in.Val
			havePrev = true
		}
	}
}

func TestTakenTargetsPointAtNextPC(t *testing.T) {
	w := SPEC("gcc", 10000)
	for i := 0; i+1 < w.Trace.Len(); i++ {
		in := w.Trace.At(i)
		if in.Op.IsCtrl() && in.Taken {
			if in.Target != w.Trace.At(i+1).PC {
				t.Fatalf("inst %d taken target %#x but next PC %#x", i, in.Target, w.Trace.At(i+1).PC)
			}
		}
		if !in.Op.IsCtrl() || !in.Taken {
			if in.PC+4 != w.Trace.At(i+1).PC {
				t.Fatalf("inst %d fallthrough PC %#x -> %#x", i, in.PC, w.Trace.At(i+1).PC)
			}
		}
	}
}

func TestInstructionMixRoughlyMatchesProfile(t *testing.T) {
	p := Profiles("gcc")
	w := Generate(p, 50000, 3)
	var loads, stores, branches int
	for i := 0; i < w.Trace.Len(); i++ {
		switch w.Trace.At(i).Op {
		case isa.OpLoad:
			loads++
		case isa.OpStore:
			stores++
		case isa.OpBranch:
			branches++
		}
	}
	n := float64(w.Trace.Len())
	lf := float64(loads) / n
	// Loads include the forwarding reloads, so allow generous slack.
	if lf < p.LoadFrac*0.7 || lf > p.LoadFrac*1.6 {
		t.Errorf("load fraction %.3f vs profile %.3f", lf, p.LoadFrac)
	}
	sf := float64(stores) / n
	if sf < p.StoreFrac*0.6 || sf > p.StoreFrac*1.5 {
		t.Errorf("store fraction %.3f vs profile %.3f", sf, p.StoreFrac)
	}
}

func TestProfilesPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Profiles must panic on unknown name")
		}
	}()
	Profiles("nonesuch")
}

func TestAllProfilesGenerate(t *testing.T) {
	for _, name := range AllSPECNames {
		w := SPEC(name, 1000)
		if w.Trace.Len() == 0 {
			t.Errorf("%s: empty trace", name)
		}
		if w.Name != name {
			t.Errorf("%s: workload named %q", name, w.Name)
		}
	}
	if len(AllSPECNames) != 24 {
		t.Errorf("expected 24 benchmarks, have %d", len(AllSPECNames))
	}
}

func TestScenariosBuild(t *testing.T) {
	for _, sc := range AllScenarios {
		w := NewScenario(sc)
		if w.Trace.Len() < 10 {
			t.Errorf("%s: suspiciously short (%d insts)", sc, w.Trace.Len())
		}
		if w.Prewarm == nil {
			t.Errorf("%s: missing prewarm hook", sc)
		}
	}
}

func TestScenarioDependentChainAddresses(t *testing.T) {
	w := NewScenario(ScenarioDependentL2)
	// Find the two loads; the second's address must equal the first's value.
	var first, second *isa.Inst
	for i := 0; i < w.Trace.Len(); i++ {
		in := w.Trace.At(i)
		if in.Op == isa.OpLoad {
			if first == nil {
				first = in
			} else {
				second = in
				break
			}
		}
	}
	if first == nil || second == nil {
		t.Fatal("scenario must contain two loads")
	}
	if first.Val != second.Addr {
		t.Fatalf("dependent miss: first value %#x != second addr %#x", first.Val, second.Addr)
	}
	if second.Src1 != first.Dst {
		t.Fatal("second load must read the first load's destination")
	}
}

func TestScenarioUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewScenario must panic on unknown scenario")
		}
	}()
	NewScenario(Scenario("zzz"))
}
