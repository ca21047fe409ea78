package spec_test

import (
	"encoding/json"
	"testing"

	"icfp/internal/spec"
	"icfp/internal/workload"
)

// FuzzSuiteCanonical throws arbitrary bytes at the suite decoder — the
// exact surface expq exposes to user-authored JSON. Garbage must come
// back as an error, never a panic, and anything accepted must satisfy
// the identity contract the cache and store build on:
// Marshal(Unmarshal(x)) re-decodes, every job's canonical encoding
// matches the reflective oracle byte for byte, and is a fixed point
// (decode -> canonicalize -> decode -> canonicalize is idempotent).
func FuzzSuiteCanonical(f *testing.F) {
	mk := func(s spec.Suite) []byte {
		b, err := s.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(mk(spec.Suite{
		Name: "seed-spec", N: 1000, Warm: 100,
		Jobs: []spec.Job{{Name: "j", Machine: spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerAll},
			Workload: spec.SPECWorkload("mcf", 1100)}},
	}))
	f.Add(mk(spec.Suite{
		Name: "seed-fuzz", N: 1000,
		Jobs: []spec.Job{{Name: "j", Machine: spec.Machine{Model: spec.ModelRunahead},
			Workload: spec.FuzzWorkload(102, workload.FuzzKnobs{SBPressure: 85, MissCluster: 30}, 1000)}},
	}))
	f.Add([]byte(`{"name":"x","jobs":[{"name":"j","machine":{"model":"icfp"},"workload":{"fuzz":{"seed":1,"sb_pressure":400},"n":10}}]}`))
	f.Add([]byte(`{"name":"x","jobs":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := spec.UnmarshalSuite(data)
		if err != nil {
			return
		}
		b, err := s.Marshal()
		if err != nil {
			t.Fatalf("accepted suite failed to marshal: %v", err)
		}
		if _, err := spec.UnmarshalSuite(b); err != nil {
			t.Fatalf("marshalled form of an accepted suite was rejected: %v\n%s", err, b)
		}
		for _, j := range s.Jobs {
			mc, wc := j.Machine.Canonical(), j.Workload.Canonical()
			if want := spec.OracleMachine(j.Machine); mc != want {
				t.Fatalf("machine canonical differs from the oracle:\n got %s\nwant %s", mc, want)
			}
			if want := spec.OracleWorkload(j.Workload); wc != want {
				t.Fatalf("workload canonical differs from the oracle:\n got %s\nwant %s", wc, want)
			}
			var m2 spec.Machine
			if err := json.Unmarshal([]byte(mc), &m2); err != nil {
				t.Fatalf("canonical machine does not decode: %v\n%s", err, mc)
			}
			if got := m2.Canonical(); got != mc {
				t.Fatalf("machine canonical not a fixed point: %s -> %s", mc, got)
			}
			var w2 spec.Workload
			if err := json.Unmarshal([]byte(wc), &w2); err != nil {
				t.Fatalf("canonical workload does not decode: %v\n%s", err, wc)
			}
			if got := w2.Canonical(); got != wc {
				t.Fatalf("workload canonical not a fixed point: %s -> %s", wc, got)
			}
		}
	})
}
