package cliutil

import (
	"errors"
	"net"
	"testing"
	"time"

	"icfp/internal/dist"
	"icfp/internal/obs"
)

// flakyListener hands out a scripted sequence of Accept outcomes, then
// reports itself closed.
type flakyListener struct {
	script chan acceptResult
}

type acceptResult struct {
	conn net.Conn
	err  error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	r, ok := <-l.script
	if !ok {
		return nil, net.ErrClosed
	}
	return r.conn, r.err
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestAcceptWorkersSurvivesTransientError pins the accept loop's retry
// policy: one failed Accept (an EMFILE, say) must not end worker intake
// — the next dialer still registers and reaches the join channel — and
// a closed listener ends the loop.
func TestAcceptWorkersSurvivesTransientError(t *testing.T) {
	coordEnd, workerEnd := net.Pipe()
	defer workerEnd.Close()
	ln := &flakyListener{script: make(chan acceptResult, 2)}
	ln.script <- acceptResult{err: errors.New("accept: too many open files")}
	ln.script <- acceptResult{conn: coordEnd}
	close(ln.script)

	join := make(chan dist.Worker)
	loopDone := make(chan struct{})
	go func() {
		AcceptWorkers(ln, dist.Security{}, join, obs.TestLogger(t))
		close(loopDone)
	}()
	go dist.Register(workerEnd, "after-emfile")

	select {
	case w := <-join:
		if w.Name != "after-emfile" {
			t.Errorf("joined worker %q, want after-emfile", w.Name)
		}
		w.RW.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("the worker dialing after a transient accept error never reached the join channel")
	}
	select {
	case <-loopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("accept loop did not return after the listener closed")
	}
}

// TestAcceptWorkersGivesUp pins the other half of the policy: a
// listener that only ever fails is dead, and the loop returns instead
// of spinning forever.
func TestAcceptWorkersGivesUp(t *testing.T) {
	ln := &flakyListener{script: make(chan acceptResult, acceptMaxFailures)}
	for i := 0; i < acceptMaxFailures; i++ {
		ln.script <- acceptResult{err: errors.New("accept: broken")}
	}
	loopDone := make(chan struct{})
	go func() {
		AcceptWorkers(ln, dist.Security{}, make(chan dist.Worker), obs.TestLogger(t))
		close(loopDone)
	}()
	select {
	case <-loopDone:
	case <-time.After(10 * time.Second):
		t.Fatalf("accept loop still running after %d consecutive failures", acceptMaxFailures)
	}
	if len(ln.script) != 0 {
		t.Errorf("loop gave up with %d scripted failures unread", len(ln.script))
	}
}
