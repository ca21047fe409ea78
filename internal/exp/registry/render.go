package registry

import (
	"fmt"
	"io"
	"strings"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
)

// RenderSuite renders a completed suite to w according to its Render
// declaration, from its results in job order. A nil render defaults to
// the plain results table. The suite must already have validated:
// RenderSuite neither validates nor simulates, so a caller that holds the
// results (the expq daemon, through exp.Collect) renders exactly as
// ReportSuite does.
func RenderSuite(w io.Writer, s spec.Suite, rs *exp.ResultSet) error {
	kind := spec.RenderTable
	if s.Render != nil {
		kind = s.Render.Kind
	}
	switch kind {
	case spec.RenderTable:
		return renderTable(w, s, rs)
	case spec.RenderSpeedup:
		return renderSpeedup(w, s, rs)
	case spec.RenderSweep:
		return renderSweep(w, s, rs)
	case spec.RenderBuiltin:
		return renderBuiltin(w, s, rs)
	}
	return fmt.Errorf("registry: suite %q: unknown render kind %q", s.Name, kind)
}

// renderBuiltin reuses a registry experiment's own table code. The
// suite's job names must match that experiment's; a panic from a missing
// result (a user-edited job list) surfaces as an error naming the suite.
func renderBuiltin(w io.Writer, s spec.Suite, rs *exp.ResultSet) (err error) {
	e, ok := Lookup(s.Render.Builtin)
	if !ok {
		return fmt.Errorf("registry: suite %q: render names unknown builtin experiment %q (have %v)",
			s.Name, s.Render.Builtin, Names())
	}
	p := Params{Cfg: spec.BaseConfig(), N: s.N}
	p.Cfg.WarmupInsts = s.Warm
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("registry: suite %q: builtin render %q: %v (do the suite's job names still match the experiment's?)",
				s.Name, e.Name, r)
		}
	}()
	e.Print(w, p, rs)
	return nil
}

// renderTable prints one row per job in suite order. Sampled results
// append their 95% confidence half-width to the IPC cell; full results
// render exactly as before the sampling harness existed, keeping the
// golden output byte-identical.
func renderTable(w io.Writer, s spec.Suite, rs *exp.ResultSet) error {
	fmt.Fprintf(w, "== suite %s ==\n", s.Name)
	fmt.Fprintf(w, "%-32s %12s %10s %6s\n", "job", "cycles", "insts", "IPC")
	for j := range rs.Len() {
		name, r := rs.At(j)
		fmt.Fprintf(w, "%-32s %12d %10d %6.3f", name, r.Cycles, r.Insts, r.IPC())
		if r.SampleIntervals > 0 && r.CPI() > 0 {
			// IPC = 1/CPI, so the relative half-width carries over.
			fmt.Fprintf(w, "±%.3f (%d windows)", r.IPC()*r.SampleCPICI95/r.CPI(), r.SampleIntervals)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// spCell formats the percent speedup of test over base as a table cell
// using the given verb (e.g. "%+7.1f%%"). When either run was sampled
// the cell ends in "±h", the 95% half-width in percentage points; full
// runs carry none, so full-mode tables format exactly as they always
// have.
func spCell(format string, test, base *pipeline.Result) string {
	sp, ci := exp.SpeedupCI95(test, base)
	cell := fmt.Sprintf(format, sp)
	if ci > 0 {
		cell += fmt.Sprintf("±%.1f", ci)
	}
	return cell
}

// lookup finds a renderer's results by names it builds in one reused
// buffer (exp.ResultSet.Find), so a table costs work per cell rather
// than a string per job name it reads.
type lookup struct {
	rs    *exp.ResultSet
	name  []byte
	pairs [][2]*pipeline.Result // gathered for geomean
}

// find returns the result named by the concatenation of parts.
func (l *lookup) find(parts ...string) (*pipeline.Result, bool) {
	l.name = l.name[:0]
	for _, p := range parts {
		l.name = append(l.name, p...)
	}
	return l.rs.Find(l.name)
}

// get is find for a name that must be present: a missing one panics, as
// exp.ResultSet.MustGet does, and a builtin render recovers the panic
// into an error naming the suite.
func (l *lookup) get(parts ...string) *pipeline.Result {
	r, ok := l.find(parts...)
	if !ok {
		panic(fmt.Sprintf("exp: no result named %q", l.name))
	}
	return r
}

// pair adds a (test, base) pair to the next geomean.
func (l *lookup) pair(test, base *pipeline.Result) {
	l.pairs = append(l.pairs, [2]*pipeline.Result{test, base})
}

// geomean returns the geometric-mean percent speedup over the pairs
// added since the last call.
func (l *lookup) geomean() float64 {
	g := exp.GeoMeanSpeedup(l.pairs)
	l.pairs = l.pairs[:0]
	return g
}

// baseline returns the render's baseline name segment (default "base").
func baseline(s spec.Suite) string {
	if s.Render != nil && s.Render.Baseline != "" {
		return s.Render.Baseline
	}
	return "base"
}

// splitLast splits a job name at its last "/" into (prefix, segment);
// names without a slash split into ("", name).
func splitLast(name string) (string, string) {
	if i := strings.LastIndex(name, "/"); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// renderSpeedup prints each non-baseline job's percent speedup over its
// group's baseline job, plus the geometric mean over all pairs.
func renderSpeedup(w io.Writer, s spec.Suite, rs *exp.ResultSet) error {
	base := baseline(s)
	fmt.Fprintf(w, "== suite %s: %% speedup over %q ==\n", s.Name, base)
	l := lookup{rs: rs}
	for j := range rs.Len() {
		name, r := rs.At(j)
		group, seg := splitLast(name)
		if seg == base {
			continue
		}
		sep := "/"
		if group == "" {
			sep = ""
		}
		b, ok := l.find(group, sep, base)
		if !ok {
			return fmt.Errorf("registry: suite %q: job %q has no baseline %q (rename the baseline job or set render.baseline)",
				s.Name, name, l.name)
		}
		fmt.Fprintf(w, "%-32s %s\n", name, spCell("%+7.1f%%", r, b))
		l.pair(r, b)
	}
	if len(l.pairs) == 0 {
		return fmt.Errorf("registry: suite %q: no jobs to compare against baseline %q", s.Name, base)
	}
	fmt.Fprintf(w, "%-32s %+7.1f%%\n\n", "geomean", l.geomean())
	return nil
}

// renderSweep reads job names as "row/col" and prints a grid of percent
// speedups of each row over the baseline row at the same column.
func renderSweep(w io.Writer, s spec.Suite, rs *exp.ResultSet) error {
	base := baseline(s)
	var rows, cols []string
	seenRow := map[string]bool{}
	seenCol := map[string]bool{}
	for j := range rs.Len() {
		name, _ := rs.At(j)
		row, col := splitLast(name)
		if row == "" {
			return fmt.Errorf("registry: suite %q: sweep render needs \"row/col\" job names; %q has no \"/\"", s.Name, name)
		}
		if !seenCol[col] {
			seenCol[col] = true
			cols = append(cols, col)
		}
		if row == base || seenRow[row] {
			continue
		}
		seenRow[row] = true
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return fmt.Errorf("registry: suite %q: sweep has no rows besides the baseline %q", s.Name, base)
	}
	fmt.Fprintf(w, "== suite %s: %% speedup over %q ==\n", s.Name, base)
	fmt.Fprintf(w, "%-18s", "config")
	for _, col := range cols {
		fmt.Fprintf(w, " %8s", col)
	}
	fmt.Fprintln(w)
	l := lookup{rs: rs}
	for _, row := range rows {
		fmt.Fprintf(w, "%-18s", row)
		for _, col := range cols {
			t, ok := l.find(row, "/", col)
			if !ok {
				return fmt.Errorf("registry: suite %q: sweep cell %q is missing", s.Name, l.name)
			}
			b, ok := l.find(base, "/", col)
			if !ok {
				return fmt.Errorf("registry: suite %q: sweep baseline %q is missing", s.Name, l.name)
			}
			fmt.Fprintf(w, " %s", spCell("%+7.1f%%", t, b))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}
