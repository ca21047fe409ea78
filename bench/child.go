package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// childEnv carries a child's configuration (JSON) from the parent. Every
// repetition of a workload runs in its own re-executed child process, so
// peak RSS and set-up time are the repetition's own.
const childEnv = "ICFP_BENCH_CHILD"

// childConfig is what one child process runs.
type childConfig struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Rep      int           `json:"rep"`
	Budget   time.Duration `json:"budget"` // sizes the measured work: see workloadDef.rounds
	Traced   bool          `json:"traced"`
	Smoke    bool          `json:"smoke"`
	Root     string        `json:"root"`              // repository root
	Dir      string        `json:"dir"`               // scratch directory, removed by the parent
	Fixture  string        `json:"fixture,omitempty"` // a pre-filled store to link (serve workloads)
	Trace    string        `json:"trace"`             // Chrome trace file of a traced child
}

func (c childConfig) sizes() sizes {
	if c.Smoke {
		return smokeSizes
	}
	return fullSizes
}

// event is one line of a child's standard output (NDJSON): "ready" once
// set up; then per round a "probe" before it, one "op" per operation as
// it completes (so a crash still reports every operation it attempted)
// and a "round" once it ends; a last "probe"; "fail" per operation the
// checks after the window reject; then "done" — or a single "error" if
// set-up failed.
type event struct {
	Ev     string  `json:"ev"`
	Kind   string  `json:"kind,omitempty"`
	Round  int     `json:"round,omitempty"`
	NS     int64   `json:"ns,omitempty"`     // set-up time, operation latency, round wall or probe time
	Probe  int64   `json:"probe,omitempty"`  // ready: the probe time around set-up
	CPUNS  int64   `json:"cpu_ns,omitempty"` // round: process user+sys over the round
	Traced int64   `json:"traced,omitempty"` // op: wall of the traced counterpart
	Digest string  `json:"digest,omitempty"`
	Err    string  `json:"err,omitempty"`
	GCCPU  float64 `json:"gc_cpu_s,omitempty"`    // done: runtime GC CPU seconds over the rounds
	GoCPU  float64 `json:"total_cpu_s,omitempty"` // done: runtime non-idle CPU seconds over the rounds
	Alloc  float64 `json:"alloc_bytes,omitempty"` // done: heap bytes allocated over the rounds

	Layers map[string]float64 `json:"layers,omitempty"`
}

// childMain runs one child and returns its exit code.
//
// The measured work runs in rounds: in each, every client runs the
// workload's batch of operations; between rounds, with the workload quiet,
// the probe times the machine. The number of rounds is fixed by the
// budget, so every run of a workload does the same work.
func childMain(raw string) int {
	var c childConfig
	if err := json.Unmarshal([]byte(raw), &c); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad configuration:", err)
		return 2
	}
	var mu sync.Mutex
	enc := json.NewEncoder(os.Stdout)
	emit := func(e event) {
		mu.Lock()
		defer mu.Unlock()
		if err := enc.Encode(e); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
		}
	}
	fail := func(err error) int {
		emit(event{Ev: "error", Err: err.Error()})
		return 1
	}
	def, ok := lookupWorkload(c.Workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", c.Workload))
	}
	var tr *tracer
	if c.Traced {
		tr = newTracer()
	}
	pr := newProbe()
	p0 := pr.run()
	start := time.Now()
	inst, err := def.setup(c, tr)
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	defer inst.close()
	setup := time.Since(start)
	emit(event{Ev: "ready", NS: int64(setup), Probe: int64(p0+pr.run()) / 2})

	var total usageSample
	for round := range def.rounds(c.Budget) {
		if def.coldHeap {
			// Each operation starts from a clean heap, as a user's fresh
			// process does: the last one's garbage is neither collected
			// nor resident during this one.
			runtime.GC()
			debug.FreeOSMemory()
		}
		emit(event{Ev: "probe", Round: round, NS: int64(pr.run())})
		before, err := usage()
		if err != nil {
			return fail(err)
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for client := range def.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range def.batch {
					i := round*def.batch + k
					t0 := time.Now()
					var r opResult
					if tr != nil {
						r = inst.tracedOp(tr.root(int64(client)<<32|int64(i+1), client), client, i)
					} else {
						r = inst.op(client, i)
					}
					e := event{Ev: "op", Kind: r.kind, Round: round, NS: int64(time.Since(t0)), Traced: int64(r.traced), Digest: r.digest}
					if r.err != nil {
						e.Err = r.err.Error()
					}
					emit(e)
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		after, err := usage()
		if err != nil {
			return fail(err)
		}
		d := after.sub(before)
		total = total.add(d)
		emit(event{Ev: "round", Round: round, NS: int64(wall), CPUNS: int64(d.cpu)})
	}
	emit(event{Ev: "probe", Round: def.rounds(c.Budget), NS: int64(pr.run())})
	for _, msg := range inst.finish() {
		emit(event{Ev: "fail", Err: msg})
	}
	done := event{Ev: "done", GCCPU: total.gcCPU, GoCPU: total.totalCPU, Alloc: total.alloc}
	if tr != nil {
		spans := tr.snapshot()
		st := digest(spans)
		done.Layers = layerValues(st, inst.acc())
		if err := writeChrome(c.Trace, spans); err != nil {
			return fail(err)
		}
		printSelfTimes(os.Stderr, c.Workload, st)
	}
	emit(done)
	return 0
}

// rounds is how many rounds a child with the given budget runs: as many
// as fill the budget at the workload's nominal pace, at least one.
func (w workloadDef) rounds(budget time.Duration) int {
	return max(1, int(math.Round(float64(budget)/float64(w.nominal))))
}

// usageSample is the process's resource use at one instant, or between
// two.
type usageSample struct {
	cpu             time.Duration // user+sys, from getrusage
	gcCPU, totalCPU float64       // runtime/metrics CPU-seconds estimates: GC, and all Go work
	alloc           float64       // cumulative heap bytes allocated
}

func (u usageSample) sub(v usageSample) usageSample {
	return usageSample{u.cpu - v.cpu, u.gcCPU - v.gcCPU, u.totalCPU - v.totalCPU, u.alloc - v.alloc}
}

func (u usageSample) add(v usageSample) usageSample {
	return usageSample{u.cpu + v.cpu, u.gcCPU + v.gcCPU, u.totalCPU + v.totalCPU, u.alloc + v.alloc}
}

func usage() (usageSample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usageSample{}, fmt.Errorf("getrusage: %w", err)
	}
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() == metrics.KindBad {
			return usageSample{}, errors.New("runtime metric " + x.Name + " unsupported")
		}
	}
	return usageSample{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU: s[0].Value.Float64(),
		// Available CPU (GOMAXPROCS × wall) minus idle: what Go used.
		totalCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		alloc:    float64(s[3].Value.Uint64()),
	}, nil
}
