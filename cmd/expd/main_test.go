package main_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
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

// runArgs is the run every test here renders: two small experiments at
// test-scale sample sizes.
var runArgs = []string{"-fig8", "-hops", "-n", "2000", "-warm", "1000"}

// syncBuffer is a log buffer one goroutine fills while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) line(s string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fmt.Fprintln(&b.buf, s)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// endpointRE pulls a bound listener address out of the daemon's log.
var endpointRE = regexp.MustCompile(`msg="(metrics endpoint up|accepting elastic workers|submissions endpoint up)" addr=(\S+)`)

// daemon starts an expq daemon with its submission, worker and metrics
// listeners on free loopback ports, and returns their addresses keyed
// by the log message that announced each, plus the daemon's log.
func daemon(ctx context.Context, t *testing.T, bin string, args ...string) (addrs map[string]string, log *syncBuffer) {
	t.Helper()
	args = append([]string{"-listen", "127.0.0.1:0", "-accept-workers", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, args...)
	cmd := exec.CommandContext(ctx, bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	log = &syncBuffer{}
	addrs = make(map[string]string)
	sc := bufio.NewScanner(stderr)
	for len(addrs) < 3 && sc.Scan() {
		log.line(sc.Text())
		if m := endpointRE.FindStringSubmatch(sc.Text()); m != nil {
			addrs[m[1]] = m[2]
		}
	}
	if len(addrs) < 3 {
		t.Fatalf("daemon never reported its three endpoints:\n%s", log)
	}
	// Drain the rest of the log so the daemon never blocks on a full
	// stderr pipe.
	go func() {
		for sc.Scan() {
			log.line(sc.Text())
		}
	}()
	return addrs, log
}

// scrape reads the named counters off a /metrics endpoint.
func scrape(t *testing.T, addr string, names ...string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int64, len(names))
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		for _, name := range names {
			if len(f) == 2 && f[0] == name {
				v, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				got[name] = v
			}
		}
	}
	return got
}

// TestJoinFleetMatchesInProcess is the CLI-level acceptance pin for the
// one fleet topology: an expq daemon accepting workers on a loopback
// port and two `expd join` worker processes serve `experiments -server`
// byte-identically to `experiments` run in a single process. The same
// submission again is then answered entirely from the daemon's store —
// every planned key a store hit, nothing dispatched — with the same
// bytes.
func TestJoinFleetMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	expd := build(t, dir, "expd")
	experiments := build(t, dir, "experiments")
	want, err := exec.Command(experiments, runArgs...).Output()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	addrs, log := daemon(ctx, t, build(t, dir, "expq"), "-store", filepath.Join(dir, "store"))
	for i := 0; i < 2; i++ {
		// Workers redial between the daemon's fleet rounds, one per
		// submitted experiment.
		j := exec.CommandContext(ctx, expd, "join", addrs["accepting elastic workers"], "-retry", "100ms", "-name", fmt.Sprintf("w%d", i))
		if err := j.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			j.Process.Kill()
			j.Wait()
		})
	}
	submit := func() []byte {
		t.Helper()
		args := append(runArgs, "-server", "http://"+addrs["submissions endpoint up"])
		out, err := exec.CommandContext(ctx, experiments, args...).Output()
		if err != nil {
			t.Fatalf("experiments -server: %v\n%s", err, log)
		}
		return out
	}
	counters := []string{"expq_dispatched_jobs_total", "expq_store_hits_total"}
	metrics := addrs["metrics endpoint up"]

	if out := submit(); !bytes.Equal(out, want) {
		t.Errorf("fleet output differs from the in-process run:\n--- fleet ---\n%s\n--- in-process ---\n%s", out, want)
	}
	t.Logf("%d worker joins", strings.Count(log.String(), `msg="worker joined"`))
	first := scrape(t, metrics, counters...)
	if first["expq_dispatched_jobs_total"] == 0 {
		t.Errorf("first submission dispatched nothing:\n%s", log)
	}

	before := len(log.String())
	if out := submit(); !bytes.Equal(out, want) {
		t.Errorf("store-only output differs from the in-process run:\n--- store ---\n%s\n--- in-process ---\n%s", out, want)
	}
	rerun := log.String()[before:]
	planned := 0
	for _, m := range regexp.MustCompile(`msg="submission accepted" jobs=(\d+)`).FindAllStringSubmatch(rerun, -1) {
		n, _ := strconv.Atoi(m[1])
		planned += n
	}
	second := scrape(t, metrics, counters...)
	if hits := second["expq_store_hits_total"] - first["expq_store_hits_total"]; planned == 0 || hits != int64(planned) {
		t.Errorf("rerun was not answered entirely from the store: %d hits for %d planned jobs:\n%s", hits, planned, rerun)
	}
	if second["expq_dispatched_jobs_total"] != first["expq_dispatched_jobs_total"] || strings.Contains(rerun, `msg="dispatch started"`) {
		t.Errorf("rerun dispatched work:\n%s", rerun)
	}
}

// TestAcceptWorkersRequired pins that expd has no coordinator role left:
// accepting workers is expq's job (expq -accept-workers), so expd run
// without `join` is a usage error that names it.
func TestAcceptWorkersRequired(t *testing.T) {
	cmd := exec.Command(build(t, t.TempDir(), "expd"), "-accept-workers", "127.0.0.1:0", "-run", "fig8")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("expd without join: err = %v, want exit code 2", err)
	}
	if !strings.Contains(stderr.String(), "expq -accept-workers") {
		t.Errorf("usage does not name expq -accept-workers:\n%s", stderr.String())
	}
}
