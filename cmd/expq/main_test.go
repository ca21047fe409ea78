package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the submissions endpoint's timeouts:
// headers and idle connections are bounded, writes are not, because a
// submission's response streams for as long as its suite simulates.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != headerTimeout || headerTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (> 0)", hs.ReadHeaderTimeout, headerTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v (> 0)", hs.IdleTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; want both 0 so streamed submissions are never cut off",
			hs.WriteTimeout, hs.ReadTimeout)
	}
}

// TestStalledHeaderIsDisconnected sends half a request header and stops:
// the server must close the connection once the header timeout passes.
// The timeout is shortened so the test is quick.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("a request with unfinished headers reached the handler")
	}))
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.WriteString(c, "POST /submit HTTP/1.1\r\nHost: expq\r\nContent-Type: app"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := io.Copy(io.Discard, c)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v with a stalled header", time.Since(start))
	}
	if err != nil {
		t.Fatalf("reading from the server: %v", err)
	}
	if n != 0 {
		t.Errorf("server answered a stalled header with %d bytes, want a bare close", n)
	}
	if took := time.Since(start); took < hs.ReadHeaderTimeout {
		t.Errorf("disconnected after %v, before the %v header timeout", took, hs.ReadHeaderTimeout)
	}
}
