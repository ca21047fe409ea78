package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// canonicalOracle is the reference canonical encoder: compact JSON with
// object keys sorted, obtained by marshalling v, re-parsing it into a
// generic tree and marshalling the tree (encoding/json sorts map keys).
// It defines the encoding; the direct encoders must match it byte for
// byte on every value, or existing cache and store keys stop hitting.
func canonicalOracle(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("spec: canonical encoding of %T: %v", v, err))
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		panic(fmt.Sprintf("spec: canonical re-parse of %T: %v", v, err))
	}
	out, err := json.Marshal(tree)
	if err != nil {
		panic(fmt.Sprintf("spec: canonical re-encoding of %T: %v", v, err))
	}
	return string(out)
}

// OracleMachine and OracleWorkload give the external tests the oracle's
// encoding of the value each Canonical method encodes.
func OracleMachine(m Machine) string { return canonicalOracle(m.collapsed()) }

func OracleWorkload(w Workload) string { return canonicalOracle(w.collapsed()) }

// strictUnmarshal is the reference strict decode: encoding/json's
// reflective Decoder rejecting unknown fields (anywhere in the document,
// including nested objects), then trailing data. decodeSuite must accept
// exactly what it accepts and build DeepEqual values.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(any)); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON document")
	}
	return nil
}

// DecodeSuite and OracleDecodeSuite give the external tests the direct
// decoder and the oracle, both without UnmarshalSuite's validation.
func DecodeSuite(data []byte) (Suite, error) { return decodeSuite(data) }

func OracleDecodeSuite(data []byte) (Suite, error) {
	var o struct {
		Suite
		Jobs oracleJobs `json:"jobs"` // hides Suite.Jobs
	}
	err := strictUnmarshal(data, &o)
	s := o.Suite
	s.Jobs = o.Jobs
	return s, err
}

// oracleJobs is a suite's job array as the oracle decodes it: refused
// when it holds more than MaxSuiteJobs elements, the bound decodeSuite
// applies to every jobs array (a repeated "jobs" key included), and
// otherwise encoding/json's strict decode of a []Job.
type oracleJobs []Job

func (j *oracleJobs) UnmarshalJSON(data []byte) error {
	var elems []json.RawMessage
	if err := json.Unmarshal(data, &elems); err != nil {
		return err
	}
	if len(elems) > MaxSuiteJobs {
		return fmt.Errorf("jobs array holds more than %d jobs", MaxSuiteJobs)
	}
	return strictUnmarshal(data, (*[]Job)(j))
}
