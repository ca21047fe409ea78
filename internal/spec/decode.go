package spec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// decodeSuite decodes a suite document strictly, in one pass over data (a
// jobs array's rest is counted first past 1,024 jobs) and without
// reflection. It accepts exactly the documents that encoding/json's
// Decoder with DisallowUnknownFields accepts as one value followed only by
// whitespace, and builds the same Suite: keys match their field exactly,
// else under bytes.EqualFold; a repeated key decodes again into what the
// earlier one left (the later scalar wins, objects merge, a "jobs" array
// decodes into the existing elements); null clears a pointer or slice and
// leaves any other field alone; integers must be integer literals in
// range; strings are unescaped and coerced to valid UTF-8. The reflective
// decode in oracle_test.go is its test oracle (FuzzSuiteDecode).
//
// The suite takes ownership of data: an escape-free string is a substring
// of data itself (unsafe.String), so data must not change while the suite
// is in use. Enum values are the package constants and the pointer
// fields come from slabs, so a document costs a handful of allocations
// however many jobs it holds.
func decodeSuite(data []byte) (Suite, error) {
	d := decoder{data: data, text: unsafe.String(unsafe.SliceData(data), len(data))}
	var s Suite
	d.ws()
	if d.object() { // null leaves the zero suite, as encoding/json does
		d.suite(&s)
	}
	d.ws()
	if d.err == nil && d.pos < len(d.data) {
		d.fail("trailing data after the JSON document (offset %d)", d.pos)
	}
	if d.err != nil {
		return Suite{}, d.err
	}
	return s, nil
}

// decoder is the state of one decodeSuite call. The first error sticks
// (fail), and every later step is a no-op.
type decoder struct {
	data []byte
	text string // data aliased as a string: escape-free strings are slices of it
	pos  int
	err  error

	ints      slab[int]
	bools     slab[bool]
	overrides slab[Overrides]
}

// slab hands out zeroed values from chunks that double in size, so a
// document's many small pointer fields cost a few allocations in all.
type slab[T any] struct {
	free []T
	next int // the next chunk's length
}

func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		s.next = max(2*s.next, 16)
		s.free = make([]T, s.next)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// The object keys of each schema type, in the order of their decode cases.
var (
	suiteKeys     = []string{"name", "desc", "n", "warm", "render", "jobs"}
	renderKeys    = []string{"kind", "baseline", "builtin"}
	jobKeys       = []string{"name", "machine", "workload"}
	machineKeys   = []string{"model", "trigger", "store_buffer", "cfp", "overrides"}
	workloadKeys  = []string{"spec", "scenario", "fuzz", "n", "sampling"}
	fuzzKeys      = []string{"seed", "sb_pressure", "branch_on_load", "miss_cluster", "rally_starve"}
	samplingKeys  = []string{"mode", "interval", "period", "warmup", "ramp", "seed"}
	overridesKeys = []string{
		"width", "l2_hit_lat", "mem_lat", "num_mshrs", "stream_bufs",
		"store_buf_entries", "slice_entries", "chained_sb_entries", "chain_table_entries",
		"poison_bits", "runahead_cache", "srl_entries", "result_buf_entries", "rob_entries",
		"block_secondary_d1", "multithread_rally", "non_blocking_rally", "warmup",
	}
)

func (d *decoder) suite(s *Suite) {
	for k := d.member(suiteKeys, -1); k >= 0; k = d.member(suiteKeys, k) {
		switch k {
		case 0:
			d.str(&s.Name)
		case 1:
			d.str(&s.Desc)
		case 2:
			d.int(&s.N)
		case 3:
			d.int(&s.Warm)
		case 4:
			if open(d, &s.Render, nil) {
				d.render(s.Render)
			}
		case 5:
			d.jobs(&s.Jobs)
		}
	}
}

func (d *decoder) render(r *Render) {
	for k := d.member(renderKeys, -1); k >= 0; k = d.member(renderKeys, k) {
		switch k {
		case 0:
			d.enum(&r.Kind, renderKinds)
		case 1:
			d.str(&r.Baseline)
		case 2:
			d.str(&r.Builtin)
		}
	}
}

// jobs decodes the suite's job array the way encoding/json decodes into a
// slice: element i decodes into the existing element i, the slice grows
// (keeping what lies past its length) or is cut to the array's length, and
// an empty array leaves a new empty slice.
//
// An array of more than MaxSuiteJobs elements fails before the slice
// grows for it: the slice doubles as the decode goes, up to countFrom
// elements, the most a described suite holds; an array that goes past
// that is counted (countJobs) once, refused if the count passes the
// bound, and otherwise sized to it exactly.
func (d *decoder) jobs(p *[]Job) {
	switch d.peek() {
	case 'n':
		d.null()
		*p = nil
		return
	case '[':
		d.pos++
	default:
		d.mismatch("jobs array")
		return
	}
	s := *p
	counted := false
	i := 0
	for first := true; d.element(first); first = false {
		if i >= countFrom && !counted {
			counted = true
			n := i + d.countJobs()
			if n > MaxSuiteJobs {
				d.fail("jobs array holds more than %d jobs", MaxSuiteJobs)
				return
			}
			if n > cap(s) {
				s = slices.Grow(s, n-len(s))
			}
		}
		// Only a malformed array, whose count was a guess, gets past it.
		if i == MaxSuiteJobs {
			d.fail("jobs array holds more than %d jobs", MaxSuiteJobs)
			return
		}
		if i >= cap(s) {
			s = slices.Grow(s, max(cap(s), 8))
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		if d.object() {
			d.job(&s[i])
		}
		i++
	}
	switch {
	case i == 0:
		s = []Job{}
	case i < len(s):
		s = s[:i]
	}
	*p = s
}

// countFrom is the number of elements a jobs array decodes before the
// decoder counts the rest. It exceeds the largest described suite (fig6
// holds 750 jobs), so those never pay for a count, and it bounds what a
// refused array costs: at most countFrom jobs, about 0.3 MB with the
// slice's doublings.
const countFrom = 1024

// countJobs scans the rest of a jobs array from the element that begins
// at d.pos without decoding it, and returns the number of elements from
// there on, counting no further than MaxSuiteJobs+1. It only skips
// strings and tracks nesting, so the count is exact for a well-formed
// array and a guess, which the decode then refutes, for a malformed one.
func (d *decoder) countJobs() int {
	data, i := d.data, d.pos
	n, depth := 0, 0
	for i < len(data) {
		for i < len(data) && !structural[data[i]] {
			i++
		}
		if i == len(data) {
			break
		}
		c := data[i]
		i++
		switch c {
		case '\n':
			i = skipSpaces(data, i)
		case '"':
			for i < len(data) && data[i] != '"' {
				if data[i] == '\\' {
					i++ // the escaped byte
				}
				i++
			}
			i++
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n + 1
			}
			depth--
		case ',':
			if depth > 0 {
				continue
			}
			if n++; n == MaxSuiteJobs {
				return n + 1
			}
		}
	}
	return n + 1
}

// structural marks the bytes countJobs acts on: a string's opening quote,
// brackets and braces, the comma, and the newline that indentation follows.
var structural = [256]bool{'"': true, '[': true, ']': true, '{': true, '}': true, ',': true, '\n': true}

func (d *decoder) job(j *Job) {
	for k := d.member(jobKeys, -1); k >= 0; k = d.member(jobKeys, k) {
		switch k {
		case 0:
			d.str(&j.Name)
		case 1:
			if d.object() {
				d.machine(&j.Machine)
			}
		case 2:
			if d.object() {
				d.workload(&j.Workload)
			}
		}
	}
}

func (d *decoder) machine(m *Machine) {
	for k := d.member(machineKeys, -1); k >= 0; k = d.member(machineKeys, k) {
		switch k {
		case 0:
			d.enum(&m.Model, Models)
		case 1:
			d.enum(&m.Trigger, Triggers)
		case 2:
			d.enum(&m.StoreBuffer, StoreBuffers)
		case 3:
			d.bool(&m.CFP)
		case 4:
			if open(d, &m.Overrides, &d.overrides) {
				d.overridesObj(m.Overrides)
			}
		}
	}
}

func (d *decoder) overridesObj(o *Overrides) {
	for k := d.member(overridesKeys, -1); k >= 0; k = d.member(overridesKeys, k) {
		switch k {
		case 0:
			d.intPtr(&o.Width)
		case 1:
			d.intPtr(&o.L2HitLat)
		case 2:
			d.intPtr(&o.MemLat)
		case 3:
			d.intPtr(&o.NumMSHRs)
		case 4:
			d.intPtr(&o.StreamBufs)
		case 5:
			d.intPtr(&o.StoreBufEntries)
		case 6:
			d.intPtr(&o.SliceEntries)
		case 7:
			d.intPtr(&o.ChainedSBEntries)
		case 8:
			d.intPtr(&o.ChainTableEntries)
		case 9:
			d.intPtr(&o.PoisonBits)
		case 10:
			d.intPtr(&o.RunaheadCache)
		case 11:
			d.intPtr(&o.SRLEntries)
		case 12:
			d.intPtr(&o.ResultBufEntries)
		case 13:
			d.intPtr(&o.ROBEntries)
		case 14:
			d.boolPtr(&o.BlockSecondaryD1)
		case 15:
			d.boolPtr(&o.MultithreadRally)
		case 16:
			d.boolPtr(&o.NonBlockingRally)
		case 17:
			d.intPtr(&o.Warmup)
		}
	}
}

func (d *decoder) workload(w *Workload) {
	for k := d.member(workloadKeys, -1); k >= 0; k = d.member(workloadKeys, k) {
		switch k {
		case 0:
			d.str(&w.SPEC)
		case 1:
			d.str(&w.Scenario)
		case 2:
			if open(d, &w.Fuzz, nil) {
				d.fuzz(w.Fuzz)
			}
		case 3:
			d.int(&w.N)
		case 4:
			if open(d, &w.Sampling, nil) {
				d.sampling(w.Sampling)
			}
		}
	}
}

func (d *decoder) fuzz(f *Fuzz) {
	for k := d.member(fuzzKeys, -1); k >= 0; k = d.member(fuzzKeys, k) {
		switch k {
		case 0:
			d.int64(&f.Seed)
		case 1:
			d.int(&f.SBPressure)
		case 2:
			d.int(&f.BranchOnLoad)
		case 3:
			d.int(&f.MissCluster)
		case 4:
			d.int(&f.RallyStarve)
		}
	}
}

func (d *decoder) sampling(s *Sampling) {
	for k := d.member(samplingKeys, -1); k >= 0; k = d.member(samplingKeys, k) {
		switch k {
		case 0:
			d.enum(&s.Mode, SamplingModes)
		case 1:
			d.int(&s.Interval)
		case 2:
			d.int(&s.Period)
		case 3:
			d.int(&s.Warmup)
		case 4:
			d.int(&s.Ramp)
		case 5:
			d.int64(&s.Seed)
		}
	}
}

// object consumes the opening brace of a struct-valued member and reports
// whether an object follows: null leaves the struct alone.
func (d *decoder) object() bool {
	switch d.peek() {
	case '{':
		d.pos++
		return true
	case 'n':
		d.null()
	default:
		d.mismatch("object")
	}
	return false
}

// open is object for a pointer member: null sets it nil, and an object
// decodes into the existing value, allocating one (from the slab, if
// given) only for a nil pointer.
func open[T any](d *decoder, p **T, from *slab[T]) bool {
	if d.peek() == 'n' {
		d.null()
		*p = nil
		return false
	}
	if !d.object() {
		return false
	}
	if *p == nil {
		if from != nil {
			*p = from.new()
		} else {
			*p = new(T)
		}
	}
	return true
}

// member advances to the next member of the object being decoded and
// returns the index of its key in keys, the value being next; it returns
// -1 past the closing brace or on error. prev is the index the previous
// member matched, or -1 just past the opening brace. A key that matches
// no field exactly or under bytes.EqualFold is an error: decoding is
// strict.
func (d *decoder) member(keys []string, prev int) int {
	if d.err != nil {
		return -1
	}
	d.ws()
	c := d.peek()
	if c == '}' {
		d.pos++
		return -1
	}
	if prev >= 0 {
		if c != ',' {
			d.syntax("',' or '}' after an object member")
			return -1
		}
		d.pos++
		d.ws()
	}
	if d.peek() != '"' {
		d.syntax("a quoted object key")
		return -1
	}
	sp, key := d.scanString()
	if d.err != nil {
		return -1
	}
	if key == nil {
		key = d.data[sp.start:sp.end]
	}
	k := match(keys, key, prev+1)
	if k < 0 {
		d.fail("unknown field %q (offset %d)", key, d.pos)
		return -1
	}
	if d.peek() != ':' {
		d.ws()
	}
	if d.peek() != ':' {
		d.syntax("':' after an object key")
		return -1
	}
	d.pos++
	d.ws()
	return k
}

// match returns the index of key in keys: an exact match first, else the
// first key equal under bytes.EqualFold, else -1. Members usually come in
// the order of keys (Suite.Marshal writes them so), so keys[next] is
// tried first.
func match(keys []string, key []byte, next int) int {
	if next < len(keys) && string(key) == keys[next] {
		return next
	}
	for i, name := range keys {
		if string(key) == name {
			return i
		}
	}
	for i, name := range keys {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// element advances to the next element of the array being decoded (first:
// just past its opening bracket), reporting false past the closing
// bracket or on error.
func (d *decoder) element(first bool) bool {
	if d.err != nil {
		return false
	}
	d.ws()
	c := d.peek()
	if c == ']' {
		d.pos++
		return false
	}
	if !first {
		if c != ',' {
			d.syntax("',' or ']' after an array element")
			return false
		}
		d.pos++
		d.ws()
	}
	return true
}

// str decodes a string member; null leaves it alone.
func (d *decoder) str(dst *string) {
	switch d.peek() {
	case '"':
		s, esc := d.scanString()
		if esc != nil {
			*dst = unsafe.String(unsafe.SliceData(esc), len(esc)) // esc is the decoder's own
		} else {
			*dst = d.text[s.start:s.end]
		}
	case 'n':
		d.null()
	default:
		d.mismatch("string")
	}
}

// enum is str for a member whose valid values are names: a valid value is
// the package's own constant.
func (d *decoder) enum(dst *string, names []string) {
	d.str(dst)
	if i := slices.Index(names, *dst); i >= 0 {
		*dst = names[i]
	}
}

// int decodes an integer member; null leaves it alone.
func (d *decoder) int(dst *int) {
	if v, ok := d.integer(); ok {
		*dst = int(v)
	}
}

func (d *decoder) int64(dst *int64) {
	if v, ok := d.integer(); ok {
		*dst = v
	}
}

// intPtr decodes an optional integer: null sets it nil, and a number is
// stored through the existing pointer or a new slab cell.
func (d *decoder) intPtr(dst **int) {
	if d.peek() == 'n' {
		d.null()
		*dst = nil
		return
	}
	if v, ok := d.integer(); ok {
		if *dst == nil {
			*dst = d.ints.new()
		}
		**dst = int(v)
	}
}

// bool decodes a boolean member; null leaves it alone.
func (d *decoder) bool(dst *bool) {
	if v, ok := d.boolean(); ok {
		*dst = v
	}
}

func (d *decoder) boolPtr(dst **bool) {
	if d.peek() == 'n' {
		d.null()
		*dst = nil
		return
	}
	if v, ok := d.boolean(); ok {
		if *dst == nil {
			*dst = d.bools.new()
		}
		**dst = v
	}
}

// boolean scans true or false, reporting false for null (consumed) and
// on error.
func (d *decoder) boolean() (v, ok bool) {
	switch d.peek() {
	case 't':
		d.literal("true")
		return true, d.err == nil
	case 'f':
		d.literal("false")
		return false, d.err == nil
	case 'n':
		d.null()
	default:
		d.mismatch("boolean")
	}
	return false, false
}

// integer scans a number as encoding/json stores one into an integer
// field, strconv.ParseInt(literal, 10, 64): the literal must follow JSON's
// number grammar, and a fraction, an exponent or a value outside int64 is
// an error. It reports false for null (consumed) and on error.
func (d *decoder) integer() (int64, bool) {
	c := d.peek()
	if c == 'n' {
		d.null()
		return 0, false
	}
	if c != '-' && (c < '0' || c > '9') {
		d.mismatch("integer")
		return 0, false
	}
	start := d.pos
	neg := c == '-'
	if neg {
		d.pos++
	}
	digits := d.pos
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		d.syntax("a digit in a number")
		return 0, false
	}
	end := d.pos
	fraction := d.peek() == '.'
	if fraction {
		d.pos++
		if !d.digits() {
			d.syntax("a digit after the decimal point")
			return 0, false
		}
	}
	exponent := d.peek() == 'e' || d.peek() == 'E'
	if exponent {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			d.syntax("a digit in the exponent")
			return 0, false
		}
	}
	if fraction || exponent {
		d.fail("number %s is not an integer (offset %d)", d.data[start:d.pos], start)
		return 0, false
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range d.data[digits:end] {
		if u > (limit-uint64(c-'0'))/10 {
			d.fail("number %s overflows a 64-bit integer (offset %d)", d.data[start:end], start)
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		return int64(-u), true
	}
	return int64(u), true
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// span is a string's contents within data, between its quotes.
type span struct{ start, end int }

// scanString consumes the string at d.pos (its opening quote). It returns
// the span of the contents and, when they hold an escape or a byte outside
// printable ASCII, their decoded bytes: escapes resolved, a surrogate pair
// joined, and a lone surrogate or invalid UTF-8 replaced by U+FFFD, as
// encoding/json decodes them. Control characters are errors.
func (d *decoder) scanString() (span, []byte) {
	data, start := d.data, d.pos+1
	for i := start; i < len(data); i++ {
		if c := data[i]; !plain[c] {
			if c == '"' {
				d.pos = i + 1
				return span{start, i}, nil
			}
			d.pos = i
			return span{start, i}, d.unescape(start)
		}
	}
	d.pos = len(d.data)
	d.syntax("a closing quote")
	return span{}, nil
}

// plain marks the bytes a string holds verbatim: printable ASCII other
// than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape decodes the rest of a string from d.pos, the first byte that
// needs more than a copy; start is where its contents began.
func (d *decoder) unescape(start int) []byte {
	b := make([]byte, d.pos-start, d.pos-start+16)
	copy(b, d.data[start:d.pos])
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return b
		case c < ' ':
			d.syntax("no control character in a string")
			return nil
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			d.pos++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.data[d.pos:])
			b = utf8.AppendRune(b, r)
			d.pos += n
		default:
			if d.pos+1 >= len(d.data) {
				d.pos = len(d.data)
				d.syntax("an escape after '\\'")
				return nil
			}
			e := d.data[d.pos+1]
			switch e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.u4(d.pos)
				if r < 0 {
					d.pos += 2
					d.syntax("four hex digits after \\u")
					return nil
				}
				d.pos += 6
				// A surrogate joins the \u escape after it into a pair, or
				// else stands for U+FFFD alone.
				if utf16.IsSurrogate(r) {
					if r = utf16.DecodeRune(r, d.u4(d.pos)); r != utf8.RuneError {
						d.pos += 6
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos++
				d.syntax("a valid escape character")
				return nil
			}
			d.pos += 2
		}
	}
	d.syntax("a closing quote")
	return nil
}

// u4 returns the value of the escape \uXXXX at data[i:], or -1 if none
// is there.
func (d *decoder) u4(i int) rune {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// null consumes the literal null.
func (d *decoder) null() { d.literal("null") }

func (d *decoder) literal(word string) {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		d.syntax("the literal " + word)
		return
	}
	d.pos += len(word)
}

// ws skips JSON whitespace, taking the indentation after a newline a word
// at a time.
func (d *decoder) ws() {
	data, i := d.data, d.pos
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\r':
			i++
		case '\n':
			i = skipSpaces(data, i+1)
		default:
			d.pos = i
			return
		}
	}
	d.pos = i
}

// skipSpaces returns the index of the first byte at or after i that is
// not a space, or a multiple of eight bytes past i near the end of data,
// reading a word at a time.
func skipSpaces(data []byte, i int) int {
	for i+8 <= len(data) {
		if x := binary.LittleEndian.Uint64(data[i:]) ^ spaces8; x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
		i += 8
	}
	return i
}

const spaces8 = 0x2020202020202020

// peek returns the byte at d.pos, or 0 at the end of the input, which is
// where an error leaves d.pos (no case of the decoder's switches matches 0).
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// fail records the first error and moves to the end of the input, so every
// later step finds nothing to decode.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.pos = len(d.data)
}

// syntax records a syntax error at d.pos: want names what belongs there.
func (d *decoder) syntax(want string) {
	if d.pos >= len(d.data) {
		d.fail("unexpected end of JSON input (want %s)", want)
		return
	}
	d.fail("invalid character %q at offset %d (want %s)", d.data[d.pos], d.pos, want)
}

// mismatch records a value of the wrong JSON type at d.pos: want names
// the one the field takes.
func (d *decoder) mismatch(want string) {
	if d.pos >= len(d.data) {
		d.syntax(want)
		return
	}
	d.fail("cannot decode the value at offset %d into a field that takes a %s", d.pos, want)
}
