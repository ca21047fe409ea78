package obs

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// Handler returns the embeddable telemetry mux:
//
//   - /metrics renders the registry in Prometheus text format.
//   - /healthz returns 200 "ok", or 503 with the error text when the
//     optional healthz func reports one — the liveness contract scrape
//     targets and load balancers expect.
//
// A nil healthz means "alive as long as the server answers".
func (r *Registry) Handler(healthz func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if healthz != nil {
			if err := healthz(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Serve starts the telemetry endpoint on addr in a background goroutine
// and returns the bound address (useful with ":0") and a stop func. The
// server is deliberately plain HTTP on a trusted interface: bind it to
// loopback or an internal network, exactly like any other metrics port.
func Serve(addr string, r *Registry, healthz func() error) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics listener on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler(healthz), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	stop := func() {
		srv.Close()
	}
	return ln.Addr().String(), stop, nil
}
