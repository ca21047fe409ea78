package spec

import (
	"encoding/json"
	"strconv"
)

// The canonical encoding is compact JSON with object keys sorted, byte
// for byte what encoding/json produces when it marshals a spec value,
// re-parses it into a generic (float64-numbered) tree and marshals the
// tree again. The encoders below write it directly, without reflection
// or the intermediate tree, because canonicalization runs several times
// per job on every submission. Each appendJSON method therefore lists
// its fields in sorted key order, applies the same omitempty rules as
// the struct tags, and writes numbers and strings exactly as the
// round trip would (appendNumber, appendString). The reflective round
// trip survives in the tests as the oracle every encoding is checked
// against.

// appendKey starts an object member: a comma unless it is the object's
// first (the buffer then ends in the object's '{'), the quoted key, and
// a colon. Callers add members in sorted key order; keys are plain
// ASCII and need no escaping.
func appendKey(b []byte, k string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, k...)
	return append(b, '"', ':')
}

// appendOptInt and appendOptBool write a set pointer field and skip a
// nil one (omitempty on a pointer: a set zero value is still written).
func appendOptInt(b []byte, k string, v *int) []byte {
	if v == nil {
		return b
	}
	return appendNumber(appendKey(b, k), int64(*v))
}

func appendOptBool(b []byte, k string, v *bool) []byte {
	if v == nil {
		return b
	}
	return strconv.AppendBool(appendKey(b, k), *v)
}

// appendNonZero writes an omitempty integer field.
func appendNonZero(b []byte, k string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendNumber(appendKey(b, k), v)
}

// appendNumber writes an integer as the float64 tree re-encodes it.
// Integers within ±2^53 are exact in float64 and print as themselves;
// larger ones print as their nearest float64, in encoding/json's 'f'
// form (no int64 reaches the 1e21 threshold of its exponent form).
func appendNumber(b []byte, v int64) []byte {
	const exact = 1 << 53
	if v >= -exact && v <= exact {
		return strconv.AppendInt(b, v, 10)
	}
	return strconv.AppendFloat(b, float64(v), 'f', -1, 64)
}

// appendString writes s as the tree round trip does. Printable ASCII
// that encoding/json leaves alone is copied; anything else (control
// bytes, HTML characters, quotes, non-ASCII, invalid UTF-8) takes the
// round trip itself, which is exact by construction and which no
// validated spec string ever needs.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return append(b, roundTripString(s)...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// roundTripString is the generic tree's treatment of one string leaf:
// encode (invalid UTF-8 bytes become U+FFFD), decode, encode again.
func roundTripString(s string) []byte {
	enc, _ := json.Marshal(s) // a string always encodes
	var t string
	_ = json.Unmarshal(enc, &t) // encoder output always decodes
	enc, _ = json.Marshal(t)
	return enc
}

func (m Machine) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if m.CFP {
		b = append(appendKey(b, "cfp"), "true"...)
	}
	b = appendString(appendKey(b, "model"), m.Model)
	if m.Overrides != nil {
		b = m.Overrides.appendJSON(appendKey(b, "overrides"))
	}
	if m.StoreBuffer != "" {
		b = appendString(appendKey(b, "store_buffer"), m.StoreBuffer)
	}
	if m.Trigger != "" {
		b = appendString(appendKey(b, "trigger"), m.Trigger)
	}
	return append(b, '}')
}

func (o *Overrides) appendJSON(b []byte) []byte {
	b = append(b, '{')
	b = appendOptBool(b, "block_secondary_d1", o.BlockSecondaryD1)
	b = appendOptInt(b, "chain_table_entries", o.ChainTableEntries)
	b = appendOptInt(b, "chained_sb_entries", o.ChainedSBEntries)
	b = appendOptInt(b, "l2_hit_lat", o.L2HitLat)
	b = appendOptInt(b, "mem_lat", o.MemLat)
	b = appendOptBool(b, "multithread_rally", o.MultithreadRally)
	b = appendOptBool(b, "non_blocking_rally", o.NonBlockingRally)
	b = appendOptInt(b, "num_mshrs", o.NumMSHRs)
	b = appendOptInt(b, "poison_bits", o.PoisonBits)
	b = appendOptInt(b, "result_buf_entries", o.ResultBufEntries)
	b = appendOptInt(b, "rob_entries", o.ROBEntries)
	b = appendOptInt(b, "runahead_cache", o.RunaheadCache)
	b = appendOptInt(b, "slice_entries", o.SliceEntries)
	b = appendOptInt(b, "srl_entries", o.SRLEntries)
	b = appendOptInt(b, "store_buf_entries", o.StoreBufEntries)
	b = appendOptInt(b, "stream_bufs", o.StreamBufs)
	b = appendOptInt(b, "warmup", o.Warmup)
	b = appendOptInt(b, "width", o.Width)
	return append(b, '}')
}

func (w Workload) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if w.Fuzz != nil {
		b = w.Fuzz.appendJSON(appendKey(b, "fuzz"))
	}
	b = appendNonZero(b, "n", int64(w.N))
	if w.Sampling != nil {
		b = w.Sampling.appendJSON(appendKey(b, "sampling"))
	}
	if w.Scenario != "" {
		b = appendString(appendKey(b, "scenario"), w.Scenario)
	}
	if w.SPEC != "" {
		b = appendString(appendKey(b, "spec"), w.SPEC)
	}
	return append(b, '}')
}

func (f *Fuzz) appendJSON(b []byte) []byte {
	b = append(b, '{')
	b = appendNonZero(b, "branch_on_load", int64(f.BranchOnLoad))
	b = appendNonZero(b, "miss_cluster", int64(f.MissCluster))
	b = appendNonZero(b, "rally_starve", int64(f.RallyStarve))
	b = appendNonZero(b, "sb_pressure", int64(f.SBPressure))
	b = appendNumber(appendKey(b, "seed"), f.Seed)
	return append(b, '}')
}

func (s *Sampling) appendJSON(b []byte) []byte {
	b = append(b, '{')
	b = appendNonZero(b, "interval", int64(s.Interval))
	b = appendString(appendKey(b, "mode"), s.Mode)
	b = appendNonZero(b, "period", int64(s.Period))
	b = appendNonZero(b, "ramp", int64(s.Ramp))
	b = appendNonZero(b, "seed", s.Seed)
	b = appendNonZero(b, "warmup", int64(s.Warmup))
	return append(b, '}')
}
