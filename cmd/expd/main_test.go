package main_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// build compiles the named command of this module into dir.
func build(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "icfp/cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

// fleetArgs is the run every test here renders: two small experiments
// at test-scale sample sizes.
var fleetArgs = []string{"-run", "fig8,hops", "-n", "2000", "-warm", "1000"}

// addrRE pulls the bound listener address out of the coordinator's
// "accepting elastic workers" log line.
var addrRE = regexp.MustCompile(`msg="accepting elastic workers" addr=(\S+)`)

// coordinator starts an expd coordinator on a free loopback port and
// returns the bound worker address, the stdout buffer, a channel that
// delivers its exit error, and its stderr log so far (for failure
// reports).
func coordinator(ctx context.Context, t *testing.T, bin string, extra ...string) (addr string, stdout *bytes.Buffer, exited <-chan error, log *bytes.Buffer) {
	t.Helper()
	args := append(append([]string{"-accept-workers", "127.0.0.1:0"}, fleetArgs...), extra...)
	cmd := exec.CommandContext(ctx, bin, args...)
	stdout, log = &bytes.Buffer{}, &bytes.Buffer{}
	cmd.Stdout = stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		fmt.Fprintln(log, sc.Text())
		if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		cmd.Wait()
		t.Fatalf("coordinator never reported its worker address:\n%s", log)
	}
	done := make(chan error, 1)
	go func() {
		// Drain the rest of the log so the coordinator never blocks on
		// a full stderr pipe, then reap it.
		for sc.Scan() {
			fmt.Fprintln(log, sc.Text())
		}
		done <- cmd.Wait()
	}()
	return addr, stdout, done, log
}

// TestJoinFleetMatchesInProcess is the CLI-level acceptance pin for the
// one fleet topology: a coordinator on a loopback port and two
// `expd join` worker processes render byte-identically to `experiments`
// run in a single process. A second coordinator against the same -store
// then finishes with no workers at all — every planned key a store hit
// — and renders the same bytes again.
func TestJoinFleetMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	expd := build(t, dir, "expd")
	want, err := exec.Command(build(t, dir, "experiments"), "-fig8", "-hops", "-n", "2000", "-warm", "1000").Output()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	storeDir := filepath.Join(dir, "store")

	addr, out, exited, log := coordinator(ctx, t, expd, "-store", storeDir)
	var joins []*exec.Cmd
	for i := 0; i < 2; i++ {
		j := exec.CommandContext(ctx, expd, "join", addr, "-retry", "0", "-name", fmt.Sprintf("w%d", i))
		j.Stderr = &bytes.Buffer{}
		if err := j.Start(); err != nil {
			t.Fatal(err)
		}
		joins = append(joins, j)
	}
	if err := <-exited; err != nil {
		t.Fatalf("fleet coordinator: %v\n%s", err, log)
	}
	// A worker whose dial lost the race with the end of the run exits
	// with an error; either way, no worker outlives the test.
	for _, j := range joins {
		j.Process.Kill()
		j.Wait()
	}
	t.Logf("%d workers joined", strings.Count(log.String(), `msg="worker joined"`))
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("fleet output differs from the in-process run:\n--- fleet ---\n%s\n--- in-process ---\n%s", out, want)
	}

	_, out, exited, log = coordinator(ctx, t, expd, "-store", storeDir)
	if err := <-exited; err != nil {
		t.Fatalf("store-only coordinator: %v\n%s", err, log)
	}
	m := regexp.MustCompile(`msg="store open" .* planned=(\d+) hits=(\d+)`).FindStringSubmatch(log.String())
	if m == nil || m[1] != m[2] || m[1] == "0" {
		t.Errorf("rerun was not answered entirely from the store:\n%s", log)
	}
	if strings.Contains(log.String(), `msg="dispatch started"`) {
		t.Errorf("rerun dispatched work:\n%s", log)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("store-only output differs from the in-process run:\n--- store ---\n%s\n--- in-process ---\n%s", out, want)
	}
}

// TestAcceptWorkersRequired pins the coordinator's one fleet shape: with
// no -accept-workers there is no way to get workers, so the invocation
// is a usage error.
func TestAcceptWorkersRequired(t *testing.T) {
	err := exec.Command(build(t, t.TempDir(), "expd"), fleetArgs...).Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("expd without -accept-workers: err = %v, want exit code 2", err)
	}
}
