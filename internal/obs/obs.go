// Package obs is the stdlib-only telemetry layer of the fleet: a metrics
// registry (atomic counters, gauges, fixed-bucket histograms) rendered
// in Prometheus text format, an embeddable HTTP handler
// serving /metrics and /healthz, a structured-logging vocabulary on
// log/slog shared by every dispatch diagnostic, and a span log that
// records a run's per-simulation timeline for offline trace inspection.
//
// Everything is off by default and nil-safe: a nil *Registry hands out
// nil metrics, and every method on a nil Counter, Gauge, Histogram, or
// SpanLog is a no-op. Subsystems therefore instrument unconditionally
// and pay a single nil check per event when telemetry is disabled —
// instrumentation points sit outside simulation hot loops (per
// simulation, per batch, per membership event), so the enabled cost is
// one atomic op per event. The registry is safe for concurrent use;
// get-or-create calls for an existing series return the same metric.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label renders an alternating key/value list as a canonical Prometheus
// label block ({k="v",...}), empty for no labels. Keys are emitted in
// the given order; callers use a fixed order per series name so the
// series identity is stable.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label key/value list %q", kv))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter ignores every operation.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are a programmer error and ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; a nil Gauge ignores every operation.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets, plus a
// running sum and count — the Prometheus histogram shape. A nil
// Histogram ignores every operation.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64
	sum    Gauge
	count  atomic.Int64
}

// DefSecondsBuckets are the default buckets for wall-time histograms:
// 1ms to ~100s in roughly 3x steps.
var DefSecondsBuckets = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// kind discriminates what a registered series holds.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered (name, labels) pair and its metric.
type series struct {
	name   string
	labels string   // rendered {k="v",...} block, "" when unlabeled
	kv     []string // the raw alternating key/value list behind labels
	kind   kind

	c  *Counter
	g  *Gauge
	gf func() float64
	h  *Histogram
}

// Registry holds named metric series and renders them. The zero value is
// not usable; create one with NewRegistry. A nil *Registry is the
// "telemetry off" state: its accessors return nil metrics whose methods
// are no-ops.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series // keyed by name + rendered labels
	help   map[string]string  // per metric name, first registration wins
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series), help: make(map[string]string)}
}

// lookup returns the series for (name, labels), creating it with mk when
// absent. Re-registering an existing series with a different kind is a
// programmer error and panics.
func (r *Registry) lookup(name, help string, k kind, kv []string, mk func() *series) *series {
	labels := renderLabels(kv)
	id := name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[id]; ok {
		if s.kind != k && !(s.kind == kindGaugeFunc && k == kindGaugeFunc) {
			panic(fmt.Sprintf("obs: series %s re-registered as %s, was %s", id, k, s.kind))
		}
		return s
	}
	s := mk()
	s.name, s.labels, s.kv, s.kind = name, labels, kv, k
	r.series[id] = s
	if _, ok := r.help[name]; !ok && help != "" {
		r.help[name] = help
	}
	return s
}

// Counter returns the counter series (name, label key/value pairs),
// creating it on first use. On a nil registry it returns nil (a no-op
// counter).
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, kv, func() *series { return &series{c: &Counter{}} }).c
}

// Gauge returns the gauge series, creating it on first use. On a nil
// registry it returns nil (a no-op gauge).
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, kv, func() *series { return &series{g: &Gauge{}} }).g
}

// GaugeFunc registers a gauge whose value is computed at render time —
// ages and depths derived from live state. Re-registering the same
// series replaces the function (a redialing worker re-arms its gauge).
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, f func() float64, kv ...string) {
	if r == nil {
		return
	}
	s := r.lookup(name, help, kindGaugeFunc, kv, func() *series { return &series{} })
	r.mu.Lock()
	s.gf = f
	r.mu.Unlock()
}

// Histogram returns the histogram series with the given ascending upper
// bounds (+Inf implicit), creating it on first use. On a nil registry it
// returns nil (a no-op histogram).
func (r *Registry) Histogram(name, help string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, kv, func() *series {
		return &series{h: &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}}
	}).h
}

// snapshot returns the registered series sorted by name then labels, so
// rendered output is deterministic.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// value returns a scalar series' current value.
func (s *series) value() float64 {
	switch s.kind {
	case kindCounter:
		return float64(s.c.Value())
	case kindGaugeFunc:
		if s.gf == nil {
			return 0
		}
		return s.gf()
	default:
		return s.g.Value()
	}
}

// WritePrometheus renders every series in the Prometheus text exposition
// format, sorted by series name for deterministic scrapes. A nil
// registry renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastName := ""
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	for _, s := range r.snapshot() {
		if s.name != lastName {
			lastName = s.name
			if h := help[s.name]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind)
		}
		if s.kind == kindHistogram {
			writePromHistogram(&b, s)
			continue
		}
		fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatValue(s.value()))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram renders one histogram series: cumulative buckets,
// then sum and count.
func writePromHistogram(b *strings.Builder, s *series) {
	base := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	bucketLabels := func(le string) string {
		if base == "" {
			return `{le="` + le + `"}`
		}
		return "{" + base + `,le="` + le + `"}`
	}
	var cum int64
	for i, bound := range s.h.bounds {
		cum += s.h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, bucketLabels(formatValue(bound)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, bucketLabels("+Inf"), s.h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", s.name, s.labels, formatValue(s.h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", s.name, s.labels, s.h.Count())
}

// formatValue renders a float the way Prometheus expects: integers
// without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
