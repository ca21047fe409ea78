package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one -workload run, set-up and checks included; a child
// still running then is killed and its operations count as failed.
const runLimit = 150 * time.Second

// childGrace is how long a child may run past its measured window (set-up,
// its last operations, the checks after the window) before it is killed.
const childGrace = 90 * time.Second

// maxErrors caps the failure messages kept per child.
const maxErrors = 5

// childRun is what the parent learned from one child process. Its times
// are adjusted to a quiet host: each round's by the probe times on either
// side of it (see quiet); the host's own times are kept beside them.
type childRun struct {
	Workload   string             `json:"workload"`
	Rep        int                `json:"rep"`
	Traced     bool               `json:"traced,omitempty"`
	SetupS     float64            `json:"setup_s"`      // the workload's set-up in the child
	WindowS    float64            `json:"window_s"`     // Σ round wall
	CPUS       float64            `json:"cpu_s"`        // process user+sys over the rounds
	HostSetupS float64            `json:"host_setup_s"` // the same three, unadjusted
	HostWinS   float64            `json:"host_window_s"`
	HostCPUS   float64            `json:"host_cpu_s"`
	ProbeMS    float64            `json:"probe_ms"`    // median probe time
	PeakRSSMB  float64            `json:"peak_rss_mb"` // the child's peak resident set
	GCCPUFrac  float64            `json:"gc_cpu_frac"` // GC's share of the CPU Go used over the rounds
	AllocGB    float64            `json:"alloc_gb"`    // heap allocated over the rounds
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"` // the first few failure messages
	Signal     string             `json:"signal,omitempty"` // how a crashed or killed child ended
	LoadBefore float64            `json:"load_before"`      // 1-minute load average at spawn
	LoadAfter  float64            `json:"load_after"`       // and at exit
	Layers     map[string]float64 `json:"layers,omitempty"`

	lat, hostLat []float64 // operation latencies, ms, adjusted and not
	traced       []float64 // traced operations' instrumented wall, ms, adjusted
	digests      []string  // operation output digests, in completion order
}

func (r *childRun) fail(msg string) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, msg)
	}
}

// runChild re-executes the benchmark as a child running cfg and collects
// its events. It never fails: a child that cannot start, fails set-up,
// crashes or overruns is recorded as failed operations.
func runChild(o options, cfg childConfig, deadline time.Time) *childRun {
	r := &childRun{Workload: cfg.Workload, Rep: cfg.Rep, Traced: cfg.Traced, LoadBefore: loadAvg()}
	defer func() {
		r.LoadAfter = loadAvg()
		if r.Failed > r.Attempted {
			r.Attempted = r.Failed
		}
	}()
	cfg.Smoke, cfg.Root = o.smoke, o.root
	if cfg.Traced {
		cfg.Trace = filepath.Join(outDir(o.root), "trace-"+cfg.Workload+".json")
	}
	dir, err := scratchDir(o.root, cfg.Workload)
	if err != nil {
		r.Attempted++
		r.fail(err.Error())
		return r
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir
	raw, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // a childConfig always encodes
	}
	self, err := os.Executable()
	if err != nil {
		r.Attempted++
		r.fail(err.Error())
		return r
	}
	ctx, cancel := context.WithDeadline(context.Background(), minTime(deadline, time.Now().Add(cfg.Budget+childGrace)))
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), "GOMAXPROCS="+strconv.Itoa(poolSlots))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		r.Attempted++
		r.fail(err.Error())
		return r
	}
	if err := cmd.Start(); err != nil {
		r.Attempted++
		r.fail("starting the child: " + err.Error())
		return r
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type opRec struct {
		round      int
		ms, traced float64
	}
	var ops []opRec
	probes := make(map[int]float64)    // probe before each round, ms
	rounds := make(map[int][2]float64) // wall and CPU of each round, s
	var done bool
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue // not an event: a stray line on the child's stdout
		}
		switch e.Ev {
		case "ready":
			r.HostSetupS = float64(e.NS) / 1e9
			r.SetupS = r.HostSetupS * quiet(float64(e.Probe)/1e6)
		case "op":
			r.Attempted++
			ops = append(ops, opRec{e.Round, float64(e.NS) / 1e6, float64(e.Traced) / 1e6})
			if e.Digest != "" {
				r.digests = append(r.digests, e.Digest)
			}
			if e.Err != "" {
				r.fail(e.Kind + ": " + e.Err)
			}
		case "probe":
			probes[e.Round] = float64(e.NS) / 1e6
		case "round":
			rounds[e.Round] = [2]float64{float64(e.NS) / 1e9, float64(e.CPUNS) / 1e9}
		case "fail":
			r.fail(e.Err)
		case "error":
			r.Attempted++
			r.fail(e.Err)
		case "done":
			done = true
			r.GCCPUFrac = ratio(e.GCCPU, e.GoCPU)
			r.AllocGB = e.Alloc / 1e9
			r.Layers = e.Layers
		}
	}
	// A round's factor is quiet() of the mean of the probes on its two
	// sides.
	factor := func(round int) float64 {
		before, okb := probes[round]
		after, oka := probes[round+1]
		switch {
		case okb && oka:
			return quiet((before + after) / 2)
		case okb:
			return quiet(before)
		}
		return 1 // a child that died before probing
	}
	for _, x := range ops {
		f := factor(x.round)
		r.hostLat = append(r.hostLat, x.ms)
		r.lat = append(r.lat, x.ms*f)
		if x.traced > 0 {
			r.traced = append(r.traced, x.traced*f)
		}
	}
	for round, wc := range rounds {
		f := factor(round)
		r.HostWinS += wc[0]
		r.HostCPUS += wc[1]
		r.WindowS += wc[0] * f
		r.CPUS += wc[1] * f
	}
	r.ProbeMS = finite(median(slices.Collect(maps.Values(probes))))
	waitErr := cmd.Wait()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
		}
	}
	if waitErr == nil && done {
		return r
	}
	// A crashed, killed or silent child: every operation it attempted
	// counts as failed, and how it ended is recorded.
	r.Signal = exitNote(cmd.ProcessState, waitErr, ctx.Err())
	r.Attempted = max(r.Attempted, 1)
	r.Failed = r.Attempted - 1
	r.fail("child ended abnormally: " + r.Signal)
	return r
}

// storeFixture builds, under out/tmp, the store fixture that the serve
// workloads among defs start from, and returns its directory ("" when
// none of them needs it). A failure is returned as a failed operation
// for each workload that needed the fixture to append to its runs.
func storeFixture(o options, defs ...workloadDef) (string, *childRun) {
	if !slices.ContainsFunc(defs, func(d workloadDef) bool { return d.storeFixture }) {
		return "", nil
	}
	dir, err := scratchDir(o.root, "fixture")
	if err != nil {
		return "", fixtureFailure(err)
	}
	if err := buildStoreFixture(o.root, dir); err != nil {
		return dir, fixtureFailure(err)
	}
	return dir, nil
}

// scratchDir makes a fresh directory under out/tmp.
func scratchDir(root, prefix string) (string, error) {
	tmp := filepath.Join(outDir(root), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, prefix+"-")
}

func fixtureFailure(err error) *childRun {
	r := &childRun{Attempted: 1}
	r.fail("building the store fixture: " + err.Error())
	return r
}

// exitNote describes how a child ended abnormally.
func exitNote(ps *os.ProcessState, waitErr, ctxErr error) string {
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		return "killed: over its time limit"
	}
	if ps != nil {
		if ws, ok := ps.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return "signal " + ws.Signal().String()
		}
		if ps.ExitCode() != 0 {
			return "exit code " + strconv.Itoa(ps.ExitCode())
		}
	}
	if waitErr != nil {
		return waitErr.Error()
	}
	return "exited without reporting"
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// checkDigests checks that every operation of a workload rendered the
// same output, from rep to rep and between traced and untraced children;
// each operation that disagrees with the first digest counts as failed.
func checkDigests(runs []*childRun) {
	var want string
	for _, r := range runs {
		for _, d := range r.digests {
			if want == "" {
				want = d
			}
			if d != want {
				r.fail("output digest " + d[:12] + " differs from the first operation's " + want[:12])
			}
		}
	}
}

// e2eValues computes the end-to-end metrics of a set of untraced children
// of one workload: latencies pool every operation, throughput and CPU per
// operation pool every window, and set-up time and peak RSS are medians
// over the children.
func e2eValues(runs []*childRun) map[string]float64 {
	var lat, setup, rss []float64
	var ops int
	var window, cpu float64
	for _, r := range runs {
		lat = append(lat, r.lat...)
		ops += len(r.lat)
		window += r.WindowS
		cpu += r.CPUS
		if r.SetupS > 0 {
			setup = append(setup, r.SetupS)
		}
		if r.PeakRSSMB > 0 {
			rss = append(rss, r.PeakRSSMB)
		}
	}
	return map[string]float64{
		"op_p50_ms":     finite(quantile(lat, 0.50)),
		"op_tail_ms":    finite(quantile(lat, tailPercentile(len(lat))/100)),
		"ops_per_s":     ratio(float64(ops), window),
		"cpu_ms_per_op": ratio(1000*cpu, float64(ops)),
		"peak_rss_mb":   finite(median(rss)),
		"setup_s":       finite(median(setup)),
	}
}

// tracedValues completes a traced child's per-layer metrics with those
// measured on its untraced siblings: the runtime's GC share and
// allocation per operation; the tracing overhead, the traced operations'
// median wall over the untraced median, less one; and the host's own
// unadjusted times. Every per-layer metric is present; one the run could
// not measure reads 0.
func tracedValues(traced *childRun, plain []*childRun) map[string]float64 {
	m := make(map[string]float64)
	for _, d := range layerMetrics() {
		m[d.Name] = 0
	}
	maps.Copy(m, traced.Layers)
	var lat, hostLat, gc, probe []float64
	var alloc, hostWin float64
	for _, r := range plain {
		lat = append(lat, r.lat...)
		hostLat = append(hostLat, r.hostLat...)
		gc = append(gc, r.GCCPUFrac)
		probe = append(probe, r.ProbeMS)
		alloc += r.AllocGB
		hostWin += r.HostWinS
	}
	m["runtime.gc_cpu_frac"] = finite(median(gc))
	m["runtime.alloc_gb"] = ratio(alloc, float64(len(lat)))
	if base := median(lat); base > 0 && len(traced.traced) > 0 {
		m["trace.overhead"] = finite(median(traced.traced)/base - 1)
	}
	m["host.op_p50_ms"] = finite(median(hostLat))
	m["host.ops_per_s"] = ratio(float64(len(hostLat)), hostWin)
	m["host.probe_ms"] = finite(median(probe))
	return m
}

// host is the machine a set of runs measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of every child
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostFacts(root string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: poolSlots, CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (a source export) the commit stays unknown;
	// naming the git directory keeps git from searching above the root.
	gitDir := filepath.Join(root, ".git")
	if _, err := os.Stat(gitDir); err == nil {
		if out, err := exec.Command("git", "--git-dir", gitDir, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// loadAvg returns the 1-minute load average, or -1 where it is unknown.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}
