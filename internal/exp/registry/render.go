package registry

import (
	"fmt"
	"io"
	"strings"

	"icfp/internal/exp"
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
	for _, r := range rs.Results {
		fmt.Fprintf(w, "%-32s %12d %10d %6.3f", r.Name, r.R.Cycles, r.R.Insts, r.R.IPC())
		if r.R.SampleIntervals > 0 && r.R.CPI() > 0 {
			// IPC = 1/CPI, so the relative half-width carries over.
			fmt.Fprintf(w, "±%.3f (%d windows)", r.R.IPC()*r.R.SampleCPICI95/r.R.CPI(), r.R.SampleIntervals)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// ciSuffix returns the "±h" tail for a speedup cell when either run was
// sampled (h is the 95% half-width in percentage points), and "" for
// full runs — so full-mode tables format exactly as they always have.
func ciSuffix(rs *exp.ResultSet, test, base string) string {
	if _, ci := rs.SpeedupCI95(test, base); ci > 0 {
		return fmt.Sprintf("±%.1f", ci)
	}
	return ""
}

// spCell formats the percent speedup of test over base as a table cell
// using the given verb (e.g. "%+7.1f%%"), with the ciSuffix tail.
func spCell(rs *exp.ResultSet, format, test, base string) string {
	return fmt.Sprintf(format, rs.Speedup(test, base)) + ciSuffix(rs, test, base)
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

// joinGroup rebuilds a job name from a group prefix and a segment.
func joinGroup(group, seg string) string {
	if group == "" {
		return seg
	}
	return group + "/" + seg
}

// renderSpeedup prints each non-baseline job's percent speedup over its
// group's baseline job, plus the geometric mean over all pairs.
func renderSpeedup(w io.Writer, s spec.Suite, rs *exp.ResultSet) error {
	base := baseline(s)
	fmt.Fprintf(w, "== suite %s: %% speedup over %q ==\n", s.Name, base)
	var pairs [][2]string
	for _, r := range rs.Results {
		group, seg := splitLast(r.Name)
		if seg == base {
			continue
		}
		bname := joinGroup(group, base)
		if _, ok := rs.Get(bname); !ok {
			return fmt.Errorf("registry: suite %q: job %q has no baseline %q (rename the baseline job or set render.baseline)",
				s.Name, r.Name, bname)
		}
		fmt.Fprintf(w, "%-32s %+7.1f%%%s\n", r.Name, rs.Speedup(r.Name, bname), ciSuffix(rs, r.Name, bname))
		pairs = append(pairs, [2]string{r.Name, bname})
	}
	if len(pairs) == 0 {
		return fmt.Errorf("registry: suite %q: no jobs to compare against baseline %q", s.Name, base)
	}
	fmt.Fprintf(w, "%-32s %+7.1f%%\n\n", "geomean", rs.GeoMeanSpeedup(pairs))
	return nil
}

// renderSweep reads job names as "row/col" and prints a grid of percent
// speedups of each row over the baseline row at the same column.
func renderSweep(w io.Writer, s spec.Suite, rs *exp.ResultSet) error {
	base := baseline(s)
	var rows, cols []string
	seenRow := map[string]bool{}
	seenCol := map[string]bool{}
	for _, r := range rs.Results {
		row, col := splitLast(r.Name)
		if row == "" {
			return fmt.Errorf("registry: suite %q: sweep render needs \"row/col\" job names; %q has no \"/\"", s.Name, r.Name)
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
	for _, row := range rows {
		fmt.Fprintf(w, "%-18s", row)
		for _, col := range cols {
			test, bname := row+"/"+col, base+"/"+col
			if _, ok := rs.Get(test); !ok {
				return fmt.Errorf("registry: suite %q: sweep cell %q is missing", s.Name, test)
			}
			if _, ok := rs.Get(bname); !ok {
				return fmt.Errorf("registry: suite %q: sweep baseline %q is missing", s.Name, bname)
			}
			fmt.Fprintf(w, " %+7.1f%%%s", rs.Speedup(test, bname), ciSuffix(rs, test, bname))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}
