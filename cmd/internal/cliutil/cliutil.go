// Package cliutil holds the result-store, worker-intake, and
// transport-security plumbing of the experiment CLIs: the -store
// semantics of cmd/experiments, the accept loop of cmd/expq's fleet,
// and the TLS/token flag vocabulary that cmd/expq and cmd/expd share.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/obs"
	"icfp/internal/spec"
	"icfp/internal/store"
)

// SecurityFlags registers the transport-security flags every TCP
// endpoint of the fleet shares — -tls-cert/-tls-key (accepting side),
// -tls-ca/-tls-server-name (dialing side), -token (both) — and returns
// the Security they populate. The zero state (no flags set) is
// plaintext for loopback and tests; docs/OPERATIONS.md is the runbook
// for everything else.
func SecurityFlags(fs *flag.FlagSet) *dist.Security {
	sec := &dist.Security{}
	fs.StringVar(&sec.CertFile, "tls-cert", "", "PEM certificate presented to dialing peers (with -tls-key, enables TLS on the listener)")
	fs.StringVar(&sec.KeyFile, "tls-key", "", "PEM private key for -tls-cert")
	fs.StringVar(&sec.CAFile, "tls-ca", "", "PEM bundle to verify the dialed peer against (enables TLS on outbound connections)")
	fs.StringVar(&sec.ServerName, "tls-server-name", "", "hostname to verify against the peer certificate (default: the dialed host)")
	fs.StringVar(&sec.Token, "token", "", "shared fleet secret; dialers prove it before any protocol frame is processed")
	return sec
}

// UseStore opens the result store at dir (cmd/experiments -store),
// preloads cache with every job of plan the store already holds — those
// are not simulated again — and returns the exp.OnRun hook that persists
// each result as it completes. A failed write ends the process with exit
// status 1 at once; every result written before it stays in the store,
// so a rerun resumes from there.
// Each record is written atomically as it lands, which is also why an
// interrupted or killed run needs no checkpoint of its own.
func UseStore(dir string, cache *exp.Cache, plan []spec.Job, log *slog.Logger) (func(exp.Key), error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	hits, err := st.Preload(cache, plan)
	if err != nil {
		return nil, err
	}
	log.Info("store open", "dir", dir, "records", st.Len(), "planned", len(plan), "hits", hits)
	return func(k exp.Key) {
		if _, _, err := st.PutCached(cache, k); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}, nil
}

// The accept loop's retry policy: a transient Accept failure (EMFILE,
// connection churn) backs off and retries, but a listener that fails
// acceptMaxFailures times in a row is treated as dead.
const (
	acceptBackoff     = 100 * time.Millisecond
	acceptMaxFailures = 10
)

// AcceptWorkers feeds registering dialers (expd join) into join until
// the listener closes. Each candidate is authenticated, then its
// register frame validated, off the accept loop so one slow dialer
// cannot block the next. The daemon outlives every fleet round, so a
// registered worker waits on join for the next one. Transient accept
// errors are logged and retried after a short backoff, so one EMFILE
// does not end worker intake for the process's life; the loop gives up,
// and logs it, after acceptMaxFailures consecutive failures.
func AcceptWorkers(ln net.Listener, sec dist.Security, join chan<- dist.Worker, log *slog.Logger) {
	failures := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			failures++
			if failures >= acceptMaxFailures {
				log.Error("worker listener keeps failing; no longer accepting workers", obs.KeyCause, err, "failures", failures)
				return
			}
			log.Warn("accepting a worker failed; retrying", obs.KeyCause, err, "failures", failures)
			time.Sleep(acceptBackoff)
			continue
		}
		failures = 0
		go func(c net.Conn) {
			peer := c.RemoteAddr().String()
			sc, err := sec.Secure(c)
			if err != nil {
				log.Info("rejecting worker", obs.KeyAddr, peer, obs.KeyCause, err)
				return
			}
			w, err := dist.AcceptWorker(sc, peer)
			if err != nil {
				log.Info("rejecting worker", obs.KeyAddr, peer, obs.KeyCause, err)
				return
			}
			join <- w
		}(conn)
	}
}
