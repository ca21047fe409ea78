// Command expd is the fleet worker: `expd join` dials the
// -accept-workers listener of an expq daemon over the internal/dist
// protocol on TCP, with optional TLS and shared-token authentication,
// and simulates the batches it is sent (docs/OPERATIONS.md is the fleet
// runbook; docs/ARCHITECTURE.md describes the protocol):
//
//	expq -listen :9800 -store results/ -accept-workers :9801
//	expd join daemon-host:9801
//
// A local multi-process fleet is the same thing on one host: N
// `expd join` processes against a daemon on localhost.
//
// Workers may join or leave while a submission is in flight. One that
// dies mid-batch has its unfinished batch reassigned to the survivors;
// one that leaves with SIGINT/SIGTERM sends a goodbye, keeps everything
// it already streamed, and hands back only the remainder. Batches carry
// self-describing specs (internal/spec), so workers need no copy of the
// daemon's job table — heterogeneous builds interoperate as long as
// they speak the same protocol version and simulate identically; the
// handshake rejects mismatched protocol versions by name. After each
// fleet round the daemon closes its workers, and a worker with a -retry
// interval redials for the next one.
//
// Transport security: -tls-ca (plus optional -tls-server-name) makes
// join verify the daemon's -tls-cert, and -token proves the daemon's
// shared secret before any protocol frame is processed. Leave both
// unset only on loopback or a trusted network.
//
// Observability: -metrics-addr serves /metrics (Prometheus text) and
// /healthz over plain HTTP — bind it to
// loopback or an internal interface. The worker tracks the daemon's
// protocol-v4 heartbeats, so an idle worker detects a vanished daemon
// fast. See the Monitoring section of docs/OPERATIONS.md for the metric
// catalog.
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
	"icfp/internal/obs"
)

// serveMetrics starts the telemetry endpoint when addr is nonempty and
// returns the registry (nil when disabled — every obs call site treats
// a nil registry as off).
func serveMetrics(addr string) *obs.Registry {
	if addr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	bound, _, err := obs.Serve(addr, reg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "expd join:", err)
		os.Exit(1)
	}
	obs.NewLogger(os.Stderr).Info("metrics endpoint up", obs.KeyAddr, bound)
	return reg
}

func main() {
	if len(os.Args) < 2 || os.Args[1] != "join" {
		fmt.Fprintln(os.Stderr, "usage: expd join coordinator:port [flags]")
		fmt.Fprintln(os.Stderr, "expd is the fleet worker; the coordinator is expq -accept-workers.")
		os.Exit(2)
	}
	joinMain(os.Args[2:])
}

// joinMain is the elastic worker: dial a long-lived coordinator
// (expq -accept-workers), register, and simulate its batches until the
// round ends or this process is told to leave (SIGINT/SIGTERM → goodbye:
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

	reg := serveMetrics(*metricsAddr)
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
