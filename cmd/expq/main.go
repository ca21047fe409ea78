// Command expq is the simulation service daemon: the long-lived front
// end that turns the batch pipeline into shared infrastructure
// (internal/serve over internal/store). Clients submit declarative
// suites — the same `-spec` documents cmd/experiments runs — over
// HTTP/JSON; results come back byte-identical to a local run.
//
// Start a daemon backed by a persistent store and an elastic worker
// fleet (docs/OPERATIONS.md has the full runbook):
//
//	expq -listen :9800 -store /var/lib/expq/store \
//	     -accept-workers :9801 -token secret
//
// Workers are plain `expd join` processes dialing -accept-workers; they
// may join and leave at any time, including mid-submission. Without
// -accept-workers, expq simulates in-process (-local bounds the pool) —
// the single-host service shape.
//
// Submit a suite and print the rendered report with cmd/experiments:
//
//	experiments -describe fig8 | experiments -spec - -server http://host:9800
//	experiments -all -server http://host:9800        (per experiment)
//
// Every submitted job resolves through the store (a prior completion by
// any client is a hit), then the in-flight table (identical jobs
// running for another client are joined, not re-simulated), and only
// then the compute backend. Completed work persists across daemon
// restarts in the -store directory; -store-max-bytes bounds it with
// LRU-by-access eviction.
//
// Transport security: -tls-cert/-tls-key arm both the HTTP listener
// and the worker listener, -token guards submissions (bearer token)
// and worker registration (preamble), and the workers' `expd join`
// takes the matching -tls-ca and -token. -metrics-addr serves the
// expq_* store/service series plus the dist_* dispatch series on
// /metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"icfp/cmd/internal/cliutil"
	"icfp/internal/dist"
	"icfp/internal/obs"
	"icfp/internal/serve"
	"icfp/internal/store"
)

func main() {
	fs := flag.NewFlagSet("expq", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expq -listen :9800 -store DIR [-accept-workers :9801] [flags]")
		fs.PrintDefaults()
	}
	var (
		listen    = fs.String("listen", ":9800", "HTTP address for suite submissions")
		storeDir  = fs.String("store", "", "persistent result store directory (required)")
		maxBytes  = fs.Int64("store-max-bytes", 0, "evict least-recently-accessed results past this store size (0 = unbounded)")
		accept    = fs.String("accept-workers", "", "TCP address to accept elastic expd join workers on (empty = simulate in-process)")
		local     = fs.Int("local", 0, "in-process simulation pool size when no worker fleet is configured (0 = GOMAXPROCS)")
		parallel  = fs.Int("parallel", 0, "per-worker pool size (0 = each worker's GOMAXPROCS)")
		timeout   = fs.Duration("worker-timeout", 0, "declare a silent worker dead and reassign its batch after this long (0 = wait forever)")
		heartbeat = fs.Duration("heartbeat", 2*time.Second, "beacon a liveness heartbeat to every worker on this interval (0 = off)")
		maxIdle   = fs.Duration("max-idle", 0, "fail a submission after this long with zero workers and jobs outstanding (0 = wait forever)")
		metrics   = fs.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = telemetry off)")
	)
	sec := cliutil.SecurityFlags(fs)
	fs.Parse(os.Args[1:])

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "expq:", err)
		os.Exit(1)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "expq: unexpected argument %q (submit suites with experiments -spec FILE -server URL)\n", fs.Arg(0))
		os.Exit(2)
	}
	if *storeDir == "" {
		fs.Usage()
		os.Exit(2)
	}

	log := obs.NewLogger(os.Stderr)
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		bound, _, err := obs.Serve(*metrics, reg, nil)
		if err != nil {
			fatal(err)
		}
		log.Info("metrics endpoint up", obs.KeyAddr, bound)
	}

	st, err := store.Open(*storeDir, store.Options{MaxBytes: *maxBytes})
	if err != nil {
		fatal(err)
	}
	st.Instrument(reg)
	log.Info("store open", "dir", *storeDir, "records", st.Len(), "bytes", st.Bytes())

	var join chan dist.Worker
	if *accept != "" {
		ln, err := sec.Listen(*accept)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		log.Info("accepting elastic workers", obs.KeyAddr, ln.Addr().String(),
			"tls", sec.CertFile != "", "token_auth", sec.Token != "")
		join = make(chan dist.Worker)
		go cliutil.AcceptWorkers(ln, *sec, join, log)
	}

	srv, err := serve.New(serve.Config{
		Store:          st,
		Join:           join,
		DistOpts:       dist.Options{Log: log, FrameTimeout: *timeout, Heartbeat: *heartbeat, MaxIdle: *maxIdle},
		WorkerParallel: *parallel,
		LocalParallel:  *local,
		Token:          sec.Token,
		Metrics:        reg,
		Log:            log,
	})
	if err != nil {
		fatal(err)
	}

	hln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hs := newHTTPServer(srv.Handler())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		log.Info("shutting down", "signal", s.String())
		hs.Close()
	}()
	log.Info("submissions endpoint up", obs.KeyAddr, hln.Addr().String(),
		"tls", sec.CertFile != "", "token_auth", sec.Token != "", "backend", backendName(*accept))
	if sec.CertFile != "" {
		err = hs.ServeTLS(hln, sec.CertFile, sec.KeyFile)
	} else {
		err = hs.Serve(hln)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// The submissions endpoint's timeouts. A client has headerTimeout to
// send its request line and headers, and a kept-alive connection may sit
// idle between requests for idleTimeout; either way a stalled client is
// disconnected instead of holding its connection open. There is no
// write timeout: a submission streams NDJSON events for as long as its
// suite simulates.
const (
	headerTimeout = 10 * time.Second
	idleTimeout   = 2 * time.Minute
)

// newHTTPServer returns the submissions endpoint's server for h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

func backendName(accept string) string {
	if accept == "" {
		return "local"
	}
	return "fleet"
}
