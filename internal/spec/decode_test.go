package spec_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"icfp/internal/exp/registry"
	"icfp/internal/spec"
)

// describedDocs returns the -all experiments' suite documents as
// `experiments -describe` writes them at the -all golden's scale
// (n=2000, warm=1000), and their total job count.
func describedDocs(tb testing.TB) (docs [][]byte, jobs int) {
	tb.Helper()
	p := registry.Params{Cfg: spec.BaseConfig(), N: 2000}
	p.Cfg.WarmupInsts = 1000
	for _, name := range registry.DefaultNames() {
		s, err := registry.Describe(name, p)
		if err != nil {
			tb.Fatal(err)
		}
		doc, err := s.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, doc)
		jobs += len(s.Jobs)
	}
	return docs, jobs
}

// agreesWithOracle fails t unless the direct decoder and the reflective
// oracle both reject data or both accept it with DeepEqual suites. It
// reports whether they accepted.
func agreesWithOracle(t *testing.T, data []byte) bool {
	t.Helper()
	got, err := spec.DecodeSuite(data)
	want, werr := spec.OracleDecodeSuite(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("decoder error %v, oracle error %v, on:\n%q", err, werr, data)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded suites differ on:\n%q\n got %#v\nwant %#v", data, got, want)
	}
	return err == nil
}

// A minimal valid job, for building corner cases around.
const cornerJob = `{"name":"j","machine":{"model":"icfp"},"workload":{"spec":"mcf","n":5}}`

// decodeCorners are encoding/json behaviours the direct decoder must
// reproduce, with the verdict the oracle gives each (accept means the
// document decodes, not that it validates).
var decodeCorners = []struct {
	name   string
	doc    string
	accept bool
}{
	{"minimal", `{"name":"x","jobs":[` + cornerJob + `]}`, true},
	{"empty object", `{}`, true},
	{"top-level null", `null`, true},

	// Keys match exactly, else under Unicode simple case folding.
	{"key case", `{"NAME":"x","Jobs":[{"nAmE":"j","MACHINE":{"Model":"icfp","Store_Buffer":"ideal"}}]}`, true},
	{"long s folds to s", `{"name":"x","jobs":[{"workload":{"ſpec":"mcf","ſcenario":""}}]}`, true},
	{"Kelvin sign folds to k", `{"name":"x","jobs":[{"machine":{"model":"ooo","overrides":{"rob_entrieſ":3}}}],"render":{"Kind":"table"}}`, true},
	{"escaped Kelvin sign", `{"name":"x","render":{"\u212Aind":"table"}}`, true},
	{"raw Kelvin sign", "{\"name\":\"x\",\"render\":{\"Kind\":\"table\"}}", true},
	{"dotted capital I does not fold to i", "{\"name\":\"x\",\"render\":{\"buİltin\":\"fig5\"}}", false},
	{"escaped key", `{"\u006eame":"x","jobs":[]}`, true},
	{"unknown key", `{"name":"x","jobz":[]}`, false},
	{"unknown nested key", `{"jobs":[{"machine":{"trigerr":"l2"}}]}`, false},
	{"empty key", `{"":1}`, false},

	// Duplicate keys: the later value wins, objects decode into what
	// is there, and a jobs array decodes into the existing elements.
	{"duplicate scalar", `{"name":"a","name":"b","n":1,"n":2}`, true},
	{"duplicate struct", `{"jobs":[{"machine":{"model":"icfp"},"machine":{"trigger":"all"}}]}`, true},
	{"duplicate pointer", `{"jobs":[{"machine":{"overrides":{"width":2},"overrides":{"warmup":5,"width":3}}}]}`, true},
	{"duplicate render", `{"render":{"kind":"sweep"},"render":{"baseline":"b"}}`, true},
	{"duplicate jobs shorter", `{"jobs":[{"name":"a"},{"name":"b"}],"jobs":[{"machine":{"model":"icfp"}}]}`, true},
	{"duplicate jobs longer", `{"jobs":[{"name":"a"}],"jobs":[{"machine":{"model":"icfp"}},{"name":"b"}]}`, true},
	{"duplicate jobs re-exposes the cut tail", `{"jobs":[{"name":"a"},{"name":"b","machine":{"cfp":true}}],"jobs":[{}],"jobs":[{},{"workload":{"n":4}}]}`, true},
	{"duplicate jobs emptied", `{"jobs":[{"name":"a"}],"jobs":[]}`, true},
	{"duplicate overrides after null", `{"jobs":[{"machine":{"overrides":{"width":2},"overrides":null,"overrides":{"warmup":1}}}]}`, true},
	{"duplicate int pointer", `{"jobs":[{"machine":{"overrides":{"width":2,"width":null,"width":4}}}]}`, true},

	// null clears pointers and slices and leaves everything else alone.
	{"null pointers", `{"render":null,"jobs":[{"machine":{"overrides":null},"workload":{"fuzz":null,"sampling":null}}]}`, true},
	{"null after a pointer", `{"render":{"kind":"table"},"render":null}`, true},
	{"null scalars", `{"name":"x","name":null,"n":3,"n":null,"jobs":[{"machine":{"model":"ooo","cfp":true,"cfp":null}}]}`, true},
	{"null structs", `{"jobs":[{"name":"j","machine":null,"workload":null}]}`, true},
	{"null job element", `{"jobs":[null,` + cornerJob + `]}`, true},
	{"null override fields", `{"jobs":[{"machine":{"overrides":{"width":null,"multithread_rally":null}}}]}`, true},
	{"empty jobs", `{"name":"x","jobs":[]}`, true},
	{"null jobs", `{"name":"x","jobs":null}`, true},
	{"null jobs after jobs", `{"jobs":[{}],"jobs":null}`, true},

	// Integers are integer literals within int64.
	{"integer 1.0", `{"n":1.0}`, false},
	{"integer 1e3", `{"n":1e3}`, false},
	{"integer -0", `{"n":-0}`, true},
	{"integer 2^63", `{"n":9223372036854775808}`, false},
	{"integer 2^63-1", `{"n":9223372036854775807}`, true},
	{"integer -2^63", `{"jobs":[{"workload":{"fuzz":{"seed":-9223372036854775808}}}]}`, true},
	{"integer -2^63-1", `{"jobs":[{"workload":{"fuzz":{"seed":-9223372036854775809}}}]}`, false},
	{"integer leading zero", `{"n":01}`, false},
	{"integer sign only", `{"n":-}`, false},
	{"integer bare point", `{"n":1.}`, false},
	{"integer exponent without digits", `{"n":1e}`, false},
	{"integer plus sign", `{"n":+1}`, false},
	{"integer as string", `{"n":"5"}`, false},
	{"string as number", `{"name":5}`, false},
	{"bool as number", `{"jobs":[{"machine":{"cfp":1}}]}`, false},
	{"override bool", `{"jobs":[{"machine":{"overrides":{"block_secondary_d1":false,"non_blocking_rally":true}}}]}`, true},
	{"object as array", `{"jobs":{}}`, false},
	{"array as object", `{"render":[]}`, false},

	// Strings: escapes, surrogates, UTF-8 coercion, control characters.
	{"escapes", `{"name":"\"\\\/\b\f\n\r\tAé"}`, true},
	{"surrogate pair", `{"name":"\ud83d\ude00"}`, true},
	{"lone high surrogate", `{"name":"a\ud83db"}`, true},
	{"lone low surrogate", `{"name":"\ude00\ude00"}`, true},
	{"high surrogate twice", `{"name":"\ud83d\ud83d\ude00"}`, true},
	{"high surrogate then escape", `{"name":"\ud83d\n"}`, true},
	{"high surrogate at the end", `{"name":"\ud83d"}`, true},
	{"uppercase hex", `{"name":"\uD83D\uDE00\u00C9"}`, true},
	{"short \\u", `{"name":"\u12"}`, false},
	{"bad hex", `{"name":"\u12g4"}`, false},
	{"single-quote escape", `{"name":"\'"}`, false},
	{"unknown escape", `{"name":"\x41"}`, false},
	{"invalid UTF-8", "{\"name\":\"a\xffb\xc3\"}", true},
	{"encoded surrogate", "{\"name\":\"\xed\xa0\x80\"}", true},
	{"valid UTF-8", "{\"name\":\"héK\U0001F600\"}", true},
	{"raw tab", "{\"name\":\"a\tb\"}", false},
	{"raw newline", "{\"name\":\"a\nb\"}", false},
	{"raw DEL", "{\"name\":\"a\x7fb\"}", true},
	{"unterminated string", `{"name":"abc`, false},
	{"invalid UTF-8 key", "{\"nam\xff\":\"x\"}", false},
	{"invalid UTF-8 outside strings", "{\"name\":\"x\"\xff}", false},

	// Whitespace and trailing data.
	{"surrounding whitespace", " \t\r\n{\"name\" : \"x\" , \"jobs\" : [ ] } \n\t\r ", true},
	{"trailing value", `{"name":"x"} {}`, false},
	{"trailing null", `{"name":"x"}null`, false},
	{"trailing garbage", `{"name":"x"}x`, false},
	{"trailing NUL", "{\"name\":\"x\"}\x00", false},
	{"leading BOM", "\xef\xbb\xbf{}", false},
	{"form feed is not whitespace", "{}\f", false},
	{"empty input", ``, false},
	{"whitespace only", ` `, false},
	{"top-level array", `[]`, false},
	{"top-level string", `"x"`, false},
	{"top-level number", `1`, false},
	{"null with trailing data", `null x`, false},
	{"truncated", `{"name":"x"`, false},
	{"trailing comma in object", `{"name":"x",}`, false},
	{"trailing comma in array", `{"jobs":[{},]}`, false},
	{"missing colon", `{"name" "x"}`, false},
	{"missing comma", `{"name":"x" "n":1}`, false},
	{"bad literal", `{"render":nul}`, false},
	{"literal prefix", `{"render":nullx}`, false},

	// Every jobs array is bounded, a repeated key's included.
	{"jobs past the bound, then none", `{"jobs":[` + strings.Repeat(`{},`, spec.MaxSuiteJobs) + `{}],"jobs":[]}`, false},
}

// TestDecodeSuiteJobBound pins where the jobs bound falls: an array of
// MaxSuiteJobs elements decodes, one more fails while decoding, and the
// oracle agrees on both.
func TestDecodeSuiteJobBound(t *testing.T) {
	for _, n := range []int{spec.MaxSuiteJobs, spec.MaxSuiteJobs + 1} {
		doc := []byte(`{"jobs":[` + strings.Repeat(`{},`, n-1) + `{}]}`)
		accepted := agreesWithOracle(t, doc)
		if want := n <= spec.MaxSuiteJobs; accepted != want {
			t.Errorf("%d jobs: accepted = %v, want %v", n, accepted, want)
		}
	}
	s := spec.Suite{Name: "big", Jobs: make([]spec.Job, spec.MaxSuiteJobs+1)}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("Validate of %d jobs: %v, want the jobs bound", len(s.Jobs), err)
	}
}

// TestDecodeCountedJobs pins the decode of jobs arrays long enough to be
// counted (past the 1,024 jobs of the largest described suite) to the
// oracle: a long array, a repeated "jobs" key whose later array is
// longer or shorter than the earlier one, elements whose strings hold
// brackets and commas, and arrays cut short or malformed past the count.
func TestDecodeCountedJobs(t *testing.T) {
	jobs := func(n int, job string) string {
		return "[" + strings.Repeat(job+",", n-1) + job + "]"
	}
	tricky := `{"name":"a,]}[{\"","machine":{"model":"ooo","overrides":{"width":2}}}`
	for _, doc := range []string{
		`{"jobs":` + jobs(1500, cornerJob) + `}`,
		`{"jobs":` + jobs(1100, cornerJob) + `,"jobs":` + jobs(1500, tricky) + `}`,
		`{"jobs":` + jobs(1100, cornerJob) + `,"jobs":` + jobs(3000, tricky) + `}`,
		`{"jobs":` + jobs(1500, tricky) + `,"jobs":` + jobs(1100, cornerJob) + `}`,
		`{"jobs":` + jobs(2000, cornerJob) + `,"jobs":` + jobs(1030, `{}`) + `}`,
		"{\"jobs\":[\n" + strings.Repeat(cornerJob+",\n  ", 1200) + cornerJob + "\n]}",
		`{"jobs":` + jobs(1100, cornerJob)[:1100*len(cornerJob)] + `}`,
		`{"jobs":[` + strings.Repeat(cornerJob+",", 1100) + `]}`,
		`{"jobs":[` + strings.Repeat(cornerJob+",", 1100) + `{"name":"unterminated]}`,
	} {
		agreesWithOracle(t, []byte(doc))
	}
}

// TestCountJobsIsExact pins the decoder's count of a jobs array, which
// enforces MaxSuiteJobs and sizes the job slice of an array longer than
// any described suite: on every -describe document of the -all
// experiments and on arrays whose strings hold brackets, commas and
// escaped quotes, it counts exactly the jobs the decode returns.
func TestCountJobsIsExact(t *testing.T) {
	docs, _ := describedDocs(t)
	for _, doc := range []string{
		`{"jobs":[null]}`,
		`{"jobs":[{"name":"a,b}]{[\"x\\"},null,{"name":"overrides"},{"machine":{"overrides":{"width":2}}}]}`,
		"{\"jobs\" : [\n\t{ } ,\r\n{\"machine\":{\"overrides\":null}} ]}",
	} {
		docs = append(docs, []byte(doc))
	}
	for _, doc := range docs {
		s, err := spec.DecodeSuite(doc)
		if err != nil {
			t.Fatalf("%.60q: %v", doc, err)
		}
		key := bytes.Index(doc, []byte(`"jobs"`))
		open := bytes.IndexByte(doc[key:], '[')
		if open < 0 {
			continue // "jobs": null
		}
		rest := bytes.TrimLeft(doc[key+open+1:], " \t\r\n")
		if rest[0] == ']' {
			continue // the decoder counts from an element
		}
		if n := spec.CountJobs(doc, len(doc)-len(rest)); n != len(s.Jobs) {
			t.Errorf("%.60q: counted %d jobs, decoded %d", doc, n, len(s.Jobs))
		}
	}
}

// TestDecodeSuiteCornerCases pins the direct decoder to encoding/json on
// the cases where a hand-written JSON decoder most easily strays.
func TestDecodeSuiteCornerCases(t *testing.T) {
	for _, c := range decodeCorners {
		t.Run(c.name, func(t *testing.T) {
			if got := agreesWithOracle(t, []byte(c.doc)); got != c.accept {
				t.Errorf("accepted = %v, want %v: %q", got, c.accept, c.doc)
			}
		})
	}
}

// FuzzSuiteDecode checks the direct decoder against the reflective
// oracle on arbitrary bytes: both reject, or both accept with DeepEqual
// suites. It is seeded with the -describe documents of the -all
// experiments, hostile suites and the corner cases above.
func FuzzSuiteDecode(f *testing.F) {
	docs, _ := describedDocs(f)
	for _, doc := range docs {
		f.Add(doc)
	}
	good := `{
  "name": "mini", "n": 1000, "warm": 100, "render": {"kind": "speedup"},
  "jobs": [
    {"name": "g/base", "machine": {"model": "in-order", "overrides": {"warmup": 100}}, "workload": {"spec": "mcf", "n": 1100}},
    {"name": "g/icfp", "machine": {"model": "icfp", "overrides": {"warmup": 100}}, "workload": {"spec": "mcf", "n": 1100}}
  ]
}`
	for _, hostile := range []string{
		good,
		strings.Replace(good, `"model": "icfp", "overrides"`, `"model": "icfp", "trigerr": "l2", "overrides"`, 1),
		strings.Replace(good, `"warmup": 100`, `"warmupp": 100`, 1),
		strings.Replace(good, `"name": "mini",`, `"name": "mini", "jobz": [],`, 1),
		strings.Replace(good, `"n": 1100}}
  ]`, `"n": -4}}
  ]`, 1),
		good + "{}",
		strings.Replace(good, `{"kind": "speedup"}`, `{"kind": "builtin"}`, 1),
		`{"name":"f","n":1000,"jobs":[{"name":"j","machine":{"model":"icfp","overrides":{"warmup":100}},"workload":{"fuzz":{"seed":3,"sb_pressure":400},"n":1000}}]}`,
		`{"name":"f","n":1000,"jobs":[{"name":"j","machine":{"model":"icfp","overrides":{"warmup":100}},"workload":{"fuzz":{"seed":3,"rally_starve":-2},"n":1000}}]}`,
		`{"name":"f","n":1000,"jobs":[{"name":"j","machine":{"model":"icfp","overrides":{"warmup":100}},"workload":{"fuzz":{"seed":3,"sb_presure":50},"n":1000}}]}`,
		`{"name":"s","jobs":[{"name":"j","machine":{"model":"ooo","cfp":true},"workload":{"spec":"mcf","n":9000,"sampling":{"mode":"sampled","interval":10,"period":100,"warmup":5,"ramp":3,"seed":7}}}]}`,
	} {
		f.Add([]byte(hostile))
	}
	for _, c := range decodeCorners {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) { agreesWithOracle(t, data) })
}

// unmarshalSuiteAllocs is UnmarshalSuite's allocation count over the
// documents of describedDocs, and unmarshalSuiteAllocSlack the fraction
// it may grow. Allocation counts are deterministic, so the bound is
// exact.
const (
	unmarshalSuiteAllocs     = 147
	unmarshalSuiteAllocSlack = 0.2
)

// TestUnmarshalSuiteAllocs pins the decode's allocations: a few per
// document, not a few per job.
func TestUnmarshalSuiteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	docs, jobs := describedDocs(t)
	got := testing.AllocsPerRun(5, func() {
		for _, doc := range docs {
			if _, err := spec.UnmarshalSuite(doc); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := unmarshalSuiteAllocs * (1 + unmarshalSuiteAllocSlack); got > limit {
		t.Errorf("UnmarshalSuite: %.0f allocs over %d documents (%d jobs), over %.0f (%d + %.0f%%)",
			got, len(docs), jobs, limit, unmarshalSuiteAllocs, unmarshalSuiteAllocSlack*100)
	}
}

// BenchmarkUnmarshalSuite decodes and validates the -describe documents
// of the -all experiments, with the direct decoder (UnmarshalSuite) and
// with the reflective oracle.
func BenchmarkUnmarshalSuite(b *testing.B) {
	docs, jobs := describedDocs(b)
	var size int64
	for _, doc := range docs {
		size += int64(len(doc))
	}
	oracle := func(doc []byte) (spec.Suite, error) {
		s, err := spec.OracleDecodeSuite(doc)
		if err == nil {
			err = s.Validate()
		}
		return s, err
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (spec.Suite, error)
	}{{"direct", spec.UnmarshalSuite}, {"oracle", oracle}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for b.Loop() {
				for _, doc := range docs {
					if _, err := bc.decode(doc); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(jobs), "jobs/op")
		})
	}
}
