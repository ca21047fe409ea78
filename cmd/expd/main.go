// Command expd runs the paper's evaluation across processes and hosts
// over the internal/dist protocol on TCP, with optional TLS and
// shared-token authentication on every connection (docs/OPERATIONS.md is
// the fleet runbook; docs/ARCHITECTURE.md describes the protocol).
//
// It has two roles. A coordinator names the experiments and accepts
// workers on -accept-workers; workers dial in and join its fleet, and
// may join or leave while a run is in flight:
//
//	expd -accept-workers :9701 -all -store results/
//	expd join coord-host:9701
//
// A local multi-process fleet is the same thing on one host: N
// `expd join` processes against a coordinator on localhost.
//
// The coordinator plans the deduplicated simulation jobs, shards them
// across the fleet with cost-aware work-stealing batches (per-key cost
// estimates seeded from each spec and refined online from the wall
// times workers report, so cheap keys batch large and expensive
// stragglers ship alone), merges the streamed results, and renders the
// report locally — byte-identical to `experiments` run in a single
// process at any fleet shape, because simulations are deterministic
// pure functions of their specs. A worker that dies mid-run has its
// unfinished batch reassigned to the survivors; a worker that leaves
// with `expd join`'s SIGINT/SIGTERM goodbye keeps everything it already
// streamed and hands back only the remainder. Batches carry
// self-describing specs (internal/spec), so workers need no copy of the
// coordinator's job table — heterogeneous builds interoperate as long
// as they speak the same protocol version and simulate identically; the
// handshake rejects mismatched protocol versions by name.
//
// Transport security: -tls-cert/-tls-key arm the coordinator's
// -accept-workers listener, -tls-ca (plus optional -tls-server-name)
// makes join verify the coordinator, and -token arms both sides of a
// shared-secret preamble that is checked before any protocol frame is
// processed. Leave all of them unset only on loopback or a trusted
// network.
//
// -store works as in cmd/experiments: results the store already holds
// are not dispatched (and their recorded wall times pre-seed the cost
// model), and every merged result is written to the store as it
// arrives, so an interrupted run keeps everything the workers finished.
//
// Observability: both roles accept -metrics-addr to serve /metrics
// (Prometheus text, or JSON via ?format=json) and /healthz over plain
// HTTP — bind it to loopback or an internal interface. The coordinator
// additionally beacons protocol-v4 heartbeats (-heartbeat) so idle
// workers detect a vanished coordinator fast, and -max-idle bounds how
// long a run waits with zero workers before giving up. See the
// Monitoring section of docs/OPERATIONS.md for the metric catalog.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"icfp/cmd/internal/cliutil"
	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/spec"
)

// serveMetrics starts the telemetry endpoint when addr is nonempty and
// returns the registry (nil when disabled — every obs call site treats
// a nil registry as off).
func serveMetrics(role, addr string) *obs.Registry {
	if addr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	bound, _, err := obs.Serve(addr, reg, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expd %s: %v\n", role, err)
		os.Exit(1)
	}
	obs.NewLogger(os.Stderr).Info("metrics endpoint up", obs.KeyAddr, bound)
	return reg
}

func main() {
	if len(os.Args) > 1 {
		if os.Args[1] == "join" {
			joinMain(os.Args[2:])
			return
		}
	}
	coordMain(os.Args[1:])
}

// joinMain is the elastic worker: dial a long-lived coordinator
// (expd -accept-workers), register, and simulate its batches until the
// run ends or this process is told to leave (SIGINT/SIGTERM → goodbye:
// results already streamed are kept, the batch remainder is requeued).
func joinMain(args []string) {
	fs := flag.NewFlagSet("expd join", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expd join coordinator:port [-name label] [-retry 2s] [-tls-ca ca.pem] [-token secret]")
		fmt.Fprintln(os.Stderr, "Elastic worker: dials the coordinator's -accept-workers listener and joins its fleet,")
		fmt.Fprintln(os.Stderr, "mid-run included. SIGINT/SIGTERM sends a goodbye and exits; finished results are kept.")
		fs.PrintDefaults()
	}
	name := fs.String("name", "", "worker display name in coordinator logs (default host:pid)")
	retry := fs.Duration("retry", 2*time.Second, "redial interval while the coordinator is unreachable (0 = try once)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = telemetry off)")
	sec := cliutil.SecurityFlags(fs)

	// Accept both `expd join host:port -flags` and `expd join -flags host:port`.
	var addr string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		addr, args = args[0], args[1:]
	}
	fs.Parse(args)
	if addr == "" && fs.NArg() > 0 {
		addr = fs.Arg(0)
	}
	if addr == "" {
		fs.Usage()
		os.Exit(2)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	reg := serveMetrics("join", *metricsAddr)
	leave := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "expd join: %v: sending goodbye and draining\n", s)
		close(leave)
		// A second signal forces an immediate exit.
		<-sigc
		os.Exit(130)
	}()

	for {
		conn, err := sec.Dial(addr)
		if err != nil {
			select {
			case <-leave:
				return
			default:
			}
			if *retry <= 0 {
				fmt.Fprintln(os.Stderr, "expd join:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "expd join: %v; retrying in %v\n", err, *retry)
			select {
			case <-time.After(*retry):
				continue
			case <-leave:
				return
			}
		}
		err = dist.Register(conn, *name)
		if err == nil {
			fmt.Fprintf(os.Stderr, "expd join: registered with %s as %q\n", addr, *name)
			err = dist.Serve(conn, dist.LeaveOn(leave), dist.WithMetrics(reg))
		}
		conn.Close()
		select {
		case <-leave:
			fmt.Fprintln(os.Stderr, "expd join: left the fleet")
			return
		default:
		}
		if errors.Is(err, dist.ErrCoordinatorLost) && *retry > 0 {
			// The coordinator went silent past its announced heartbeat
			// grace (protocol v4): treat it like an unreachable
			// coordinator and redial, rather than dying — a restarted
			// coordinator wants its fleet back.
			fmt.Fprintf(os.Stderr, "expd join: %v; redialing in %v\n", err, *retry)
			select {
			case <-time.After(*retry):
				continue
			case <-leave:
				return
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "expd join:", err)
			os.Exit(1)
		}
		// A clean end means the coordinator finished its run and closed
		// us; with a retry interval, rejoin for the next run.
		if *retry <= 0 {
			return
		}
		fmt.Fprintf(os.Stderr, "expd join: run complete; redialing in %v\n", *retry)
		select {
		case <-time.After(*retry):
		case <-leave:
			return
		}
	}
}

// coordMain is the coordinator: accept -accept-workers joiners,
// distribute the run, render locally.
func coordMain(args []string) {
	fs := flag.NewFlagSet("expd", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expd -accept-workers :port [flags]   (coordinator)")
		fmt.Fprintln(os.Stderr, "       expd join coordinator:port          (worker)")
		fs.PrintDefaults()
	}
	var (
		accept    = fs.String("accept-workers", "", "TCP address to accept workers on (expd join; required); they may join mid-run")
		run       = fs.String("run", "", "comma-separated experiment names (default: the -all set)")
		all       = fs.Bool("all", false, "run the standard experiment set (same as leaving -run empty; extras like fig5s run when named in -run)")
		n         = fs.Int("n", 400_000, "timed instructions per sample")
		warm      = fs.Int("warm", 150_000, "warmup instructions per sample")
		parallel  = fs.Int("parallel", 0, "per-worker pool size (0 = each worker's GOMAXPROCS)")
		batch     = fs.Int("batch", 0, "fixed jobs per dispatched batch (0 = cost-aware sizing from per-key estimates)")
		storeDir  = fs.String("store", "", "persistent result store directory: stored results are not dispatched, merged ones are written as they arrive")
		timeout   = fs.Duration("worker-timeout", 0, "declare a silent worker dead and reassign its batch after this long (must exceed one simulation's duration; 0 = wait forever)")
		heartbeat = fs.Duration("heartbeat", 2*time.Second, "beacon a liveness heartbeat to every worker on this interval so idle workers detect a dead coordinator (0 = off)")
		maxIdle   = fs.Duration("max-idle", 0, "give up an elastic run after this long with zero workers and jobs outstanding (0 = wait forever)")
		metrics   = fs.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = telemetry off)")
	)
	sec := cliutil.SecurityFlags(fs)
	fs.Parse(args)

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "expd:", err)
		os.Exit(1)
	}
	if *accept == "" {
		fs.Usage()
		os.Exit(2)
	}
	if *n <= 0 || *warm < 0 {
		fatal(fmt.Errorf("bad sample sizes: -n %d, -warm %d", *n, *warm))
	}
	if *run != "" && *all {
		fatal(fmt.Errorf("-run and -all are mutually exclusive"))
	}
	names := registry.DefaultNames()
	if *run != "" {
		names = names[:0]
		for _, name := range strings.Split(*run, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			fatal(fmt.Errorf("-run %q names no experiments", *run))
		}
	}

	log := obs.NewLogger(os.Stderr)
	p := registry.Params{Cfg: spec.BaseConfig(), N: *n}
	p.Cfg.WarmupInsts = *warm
	cache := exp.NewCache()
	var persist func(exp.Key)
	if *storeDir != "" {
		plan, err := registry.Plan(names, p)
		if err == nil {
			persist, err = cliutil.UseStore("expd", *storeDir, cache, plan, log)
		}
		if err != nil {
			fatal(err)
		}
	}
	reg := serveMetrics("", *metrics)
	cache.Instrument(reg)

	ln, err := sec.Listen(*accept)
	if err != nil {
		fatal(err)
	}
	log.Info("accepting elastic workers", obs.KeyAddr, ln.Addr().String(),
		"tls", sec.CertFile != "", "token_auth", sec.Token != "")
	join := make(chan dist.Worker)
	runDone := make(chan struct{})
	go cliutil.AcceptWorkers(ln, *sec, join, runDone, log)
	// Once the run ends nothing reads the join channel again: stop
	// accepting and turn away candidates already mid-handshake, so a
	// late joiner gets a closed connection instead of a silent hang.
	defer close(runDone)
	defer ln.Close()

	opts := dist.Options{
		Log: log, FrameTimeout: *timeout, BatchSize: *batch, Join: join,
		Heartbeat: *heartbeat, MaxIdle: *maxIdle, Metrics: reg, OnMerge: persist,
	}
	if _, err := registry.ReportDistributed(os.Stdout, names, p, nil, *parallel, cache, opts); err != nil {
		fatal(err)
	}
}
