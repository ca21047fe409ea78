package store_test

import (
	"encoding/json"
	"errors"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/store"
	"icfp/internal/workload"
)

// TestFuzzSpecRoundTrip pins the fuzz family's store citizenship: the
// canonical key of a fuzz-family workload is stable across JSON
// encode/decode and across knob spellings (explicit zeros collapse to
// the omitted form), a record stored under it round-trips, and a
// byte-differing result for the same key is a ConflictError — exactly
// the guarantees named SPEC workloads get.
func TestFuzzSpecRoundTrip(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	wl := spec.FuzzWorkload(102, workload.FuzzKnobs{SBPressure: 85}, 60_000)
	m := spec.Machine{Model: spec.ModelICFP}
	k := exp.Key{Machine: m.Canonical(), Workload: wl.Canonical()}

	// A user-authored spelling with explicit zero knobs decodes to the
	// same canonical key: one scenario, one identity.
	var authored spec.Workload
	doc := `{"fuzz":{"seed":102,"sb_pressure":85,"branch_on_load":0,"miss_cluster":0},"n":60000}`
	if err := json.Unmarshal([]byte(doc), &authored); err != nil {
		t.Fatal(err)
	}
	if err := authored.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := authored.Canonical(); got != k.Workload {
		t.Fatalf("authored spelling canonicalizes to %s, builder to %s", got, k.Workload)
	}

	// Encode/decode of the canonical form is idempotent.
	var decoded spec.Workload
	if err := json.Unmarshal([]byte(k.Workload), &decoded); err != nil {
		t.Fatal(err)
	}
	if got := decoded.Canonical(); got != k.Workload {
		t.Fatalf("canonical form not a fixed point: %s -> %s", k.Workload, got)
	}

	rec := exp.CachedResult{
		Machine: k.Machine, Workload: k.Workload,
		R: pipeline.Result{Cycles: 123_456, Insts: 60_000},
	}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if got.R.Cycles != rec.R.Cycles || got.Workload != k.Workload {
		t.Errorf("round trip mangled record: %+v", got)
	}

	// First writer wins: an identical re-Put is a no-op...
	if err := s.Put(rec); err != nil {
		t.Fatalf("identical re-Put: %v", err)
	}
	// ...and a byte-differing result for the same fuzz key is a
	// determinism violation, never silently absorbed.
	bad := rec
	bad.R.Cycles++
	var ce *store.ConflictError
	if err := s.Put(bad); !errors.As(err, &ce) {
		t.Fatalf("conflicting Put = %v, want ConflictError", err)
	}
}
