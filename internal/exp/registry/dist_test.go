package registry_test

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"io"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
)

// pipeWorkers serves n in-process workers over pipes. Workers carry no
// registry knowledge: batches are self-describing since protocol v2.
func pipeWorkers(t *testing.T, n int) []dist.Worker {
	t.Helper()
	workers := make([]dist.Worker, 0, n)
	for i := 0; i < n; i++ {
		coordEnd, workerEnd := dist.Pipe()
		go dist.Serve(workerEnd)
		workers = append(workers, dist.Worker{Name: fmt.Sprintf("w%d", i), RW: coordEnd})
	}
	return workers
}

// fleetReport is a fleet run of the named experiments as expq's
// coordinator makes one: plan the deduplicated jobs, dispatch them to
// the workers (one-wide pools) with dist.Run, then render every
// experiment from the warm cache, which simulates nothing.
func fleetReport(w io.Writer, names []string, p registry.Params, workers []dist.Worker, cache *exp.Cache, opts dist.Options) (map[string]*exp.ResultSet, error) {
	plan, err := registry.Plan(names, p)
	if err != nil {
		return nil, err
	}
	opts.Parallel = 1
	if err := dist.Run(plan, workers, cache, opts); err != nil {
		return nil, err
	}
	return registry.Report(w, names, p, exp.WithCache(cache), exp.Parallelism(1))
}

// TestDistributedReportMatchesLocal is the cross-process determinism
// guarantee at the registry level: a report assembled from results that
// were simulated on dist workers and merged through the JSON protocol is
// byte-identical to a local single-process report, and the coordinator
// itself simulates nothing.
func TestDistributedReportMatchesLocal(t *testing.T) {
	names := []string{"fig5", "table2", "area"}
	p := tinyParams()

	var local bytes.Buffer
	if _, err := registry.Report(&local, names, p, exp.Parallelism(1)); err != nil {
		t.Fatal(err)
	}

	var distributed bytes.Buffer
	cache := exp.NewCache()
	sets, err := fleetReport(&distributed, names, p, pipeWorkers(t, 3), cache, dist.Options{Log: obs.TestLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), distributed.Bytes()) {
		t.Errorf("distributed report differs from local:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.String(), distributed.String())
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on workers", cache.Simulations())
	}
	for _, name := range names {
		if _, ok := sets[name]; !ok {
			t.Errorf("no result set for %q", name)
		}
	}
}

// TestDistributedReportWarmCache pins the preloaded-cache interplay: a
// cache warmed by one distributed run (or filled from a result store)
// satisfies the next without any workers.
func TestDistributedReportWarmCache(t *testing.T) {
	names := []string{"fig8"}
	p := tinyParams()
	cache := exp.NewCache()
	var first bytes.Buffer
	if _, err := fleetReport(&first, names, p, pipeWorkers(t, 2), cache, dist.Options{}); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if _, err := fleetReport(&second, names, p, nil, cache, dist.Options{}); err != nil {
		t.Fatalf("warm-cache distributed run must need no workers: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("warm-cache rerun differs from the run that warmed it")
	}
}

// TestSuiteDistributedMatchesLocal pins the suite path over a fleet (the
// shape expq serves): a described suite's deduplicated jobs dispatched to
// workers, then rendered by ReportSuite from the warm cache, match a
// local run of the same suite — and, transitively, the compiled-in
// experiment.
func TestSuiteDistributedMatchesLocal(t *testing.T) {
	p := tinyParams()
	s, err := registry.Describe("fig8", p)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if _, err := registry.ReportSuite(&local, s, exp.Parallelism(1)); err != nil {
		t.Fatal(err)
	}
	plan, err := exp.Plan(s.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	cache := exp.NewCache()
	if err := dist.Run(plan, pipeWorkers(t, 2), cache, dist.Options{Parallel: 1, Log: obs.TestLogger(t)}); err != nil {
		t.Fatal(err)
	}
	var distributed bytes.Buffer
	if _, err := registry.ReportSuite(&distributed, s, exp.WithCache(cache), exp.Parallelism(1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), distributed.Bytes()) {
		t.Errorf("distributed suite report differs from local:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.String(), distributed.String())
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on workers", cache.Simulations())
	}
}

// TestDistributedReportUnknownExperiment pins the planning error path,
// which a fleet run meets before any dispatch.
func TestDistributedReportUnknownExperiment(t *testing.T) {
	_, err := registry.Plan([]string{"nope"}, tinyParams())
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want unknown-experiment", err)
	}
}

// genFleetCert writes a throwaway self-signed certificate and key for
// the elastic-fleet golden test's TLS transports.
func genFleetCert(t *testing.T) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "expd-test"},
		DNSNames:              []string{"localhost"},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

// TestElasticTLSFleetMatchesGolden is the acceptance pin for elastic,
// authenticated fleets: the full -all report, rendered from results
// simulated by workers that dial a TLS+token coordinator listener over
// real TCP — one joining only after dispatch has started, another
// leaving mid-run with a goodbye — is byte-identical to the committed
// single-process golden.
func TestElasticTLSFleetMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "experiments", "testdata", "golden_all_tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	certFile, keyFile := genFleetCert(t)
	acceptSec := dist.Security{CertFile: certFile, KeyFile: keyFile, Token: "fleet-secret"}
	dialSec := dist.Security{CAFile: certFile, Token: "fleet-secret"}

	// The coordinator's -accept-workers listener, as cmd/expq wires it:
	// authenticate, read the register frame, feed the fleet.
	ln, err := acceptSec.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	join := make(chan dist.Worker)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				sc, err := acceptSec.Secure(c)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				w, err := dist.AcceptWorker(sc, c.RemoteAddr().String())
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				join <- w
			}(conn)
		}
	}()

	// Worker wA dials in first; after its fourth simulation it leaves
	// the fleet mid-run via the goodbye path. Its first simulation gates
	// worker wB's dial, so wB provably joins after dispatch started and
	// finishes the run (including wA's handed-back remainder).
	leaveA := make(chan struct{})
	dialB := make(chan struct{})
	startWorker := func(name string, opts ...dist.ServeOption) {
		conn, err := dialSec.Dial(ln.Addr().String())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		defer conn.Close()
		if err := dist.Register(conn, name); err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if err := dist.Serve(conn, opts...); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	var aRuns atomic.Int64
	var closeOnce, leaveOnce sync.Once
	go startWorker("wA", dist.LeaveOn(leaveA), dist.OnSimulate(func(exp.Key) {
		switch aRuns.Add(1) {
		case 1:
			closeOnce.Do(func() { close(dialB) })
		case 4:
			leaveOnce.Do(func() { close(leaveA) })
		}
	}))
	go func() {
		<-dialB
		startWorker("wB")
	}()

	var out bytes.Buffer
	cache := exp.NewCache()
	opts := dist.Options{Join: join, Log: obs.TestLogger(t)}
	if _, err := fleetReport(&out, registry.DefaultNames(), tinyParams(), nil, cache, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("elastic TLS fleet output differs from the committed golden (%d vs %d bytes)", out.Len(), len(golden))
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on the fleet", cache.Simulations())
	}
}

// crashRW lets a fixed number of worker-side frames through, then fails
// every write and severs the pipe — a worker process dying mid-batch.
type crashRW struct {
	rw         io.ReadWriteCloser
	writesLeft atomic.Int32
	died       chan struct{}
	once       sync.Once
}

func newCrashRW(rw io.ReadWriteCloser, frames int32) *crashRW {
	c := &crashRW{rw: rw, died: make(chan struct{})}
	c.writesLeft.Store(frames)
	return c
}

func (c *crashRW) Read(p []byte) (int, error) { return c.rw.Read(p) }

func (c *crashRW) Write(p []byte) (int, error) {
	if c.writesLeft.Add(-1) < 0 {
		c.once.Do(func() {
			c.rw.Close()
			close(c.died)
		})
		return 0, fmt.Errorf("worker crashed")
	}
	return c.rw.Write(p)
}

// gateRW delays a worker's first read — and with it its handshake —
// until the gate opens, the scheduling device that forces the first
// batches onto the workers that will fail.
type gateRW struct {
	rw   io.ReadWriteCloser
	gate <-chan struct{}
}

func (g *gateRW) Read(p []byte) (int, error)  { <-g.gate; return g.rw.Read(p) }
func (g *gateRW) Write(p []byte) (int, error) { return g.rw.Write(p) }
func (g *gateRW) Close() error                { return g.rw.Close() }

// TestChaosFleetMatchesGolden is the fault-injection acceptance pin: the
// full -all report survives a worker crashing mid-batch AND a worker
// partitioning (connected but silent, cut by FrameTimeout) — with the
// output still byte-identical to the committed single-process golden,
// and the telemetry registry accounting the carnage: requeues happened,
// every worker retired, and the queue drained to zero.
func TestChaosFleetMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "experiments", "testdata", "golden_all_tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}

	// The crasher: handshakes, streams one result, then dies mid-batch.
	crashCoord, crashWorker := dist.Pipe()
	dying := newCrashRW(crashWorker, 2) // ready + one result
	go dist.Serve(dying)

	// The partitioned worker: handshakes, accepts a batch, then goes
	// silent while holding the connection open — only FrameTimeout can
	// declare it dead.
	stallCoord, stallWorker := dist.Pipe()
	gotBatch := make(chan struct{})
	go func() {
		m, err := dist.ReadMessage(stallWorker)
		if err != nil || m.Type != dist.TypeInit {
			return
		}
		if err := dist.WriteMessage(stallWorker, &dist.Message{Type: dist.TypeReady}); err != nil {
			return
		}
		if m, err = dist.ReadMessage(stallWorker); err != nil || m.Type != dist.TypeBatch {
			return
		}
		close(gotBatch)
		dist.ReadMessage(stallWorker) // silence: never answer again
	}()

	// Two healthy survivors, gated until both victims have their batches
	// (and the crasher is dead), so the first dispatches provably land on
	// the doomed workers and real requeues happen.
	gate := make(chan struct{})
	go func() {
		<-dying.died
		<-gotBatch
		close(gate)
	}()
	workers := []dist.Worker{
		{Name: "crasher", RW: crashCoord},
		{Name: "partitioned", RW: stallCoord},
	}
	for i := 0; i < 2; i++ {
		coordEnd, workerEnd := dist.Pipe()
		go dist.Serve(&gateRW{rw: workerEnd, gate: gate})
		workers = append(workers, dist.Worker{Name: fmt.Sprintf("survivor%d", i), RW: coordEnd})
	}

	reg := obs.NewRegistry()
	var out bytes.Buffer
	cache := exp.NewCache()
	opts := dist.Options{
		Parallel:     8,
		FrameTimeout: 500 * time.Millisecond,
		Metrics:      reg,
		Log:          obs.TestLogger(t),
	}
	if _, err := fleetReport(&out, registry.DefaultNames(), tinyParams(), workers, cache, opts); err != nil {
		t.Fatalf("chaos run must still succeed: %v", err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("chaos fleet output differs from the committed golden (%d vs %d bytes)", out.Len(), len(golden))
	}
	if cache.Simulations() != 0 {
		t.Errorf("coordinator simulated %d times; all simulation must happen on the fleet", cache.Simulations())
	}

	// The registry must have witnessed the chaos and the recovery.
	if got := reg.Counter("dist_requeued_jobs_total", "").Value(); got < 1 {
		t.Errorf("dist_requeued_jobs_total = %d, want >= 1 (a crash and a partition both requeue)", got)
	}
	if got := reg.Counter("dist_retired_workers_total", "").Value(); got != int64(len(workers)) {
		t.Errorf("dist_retired_workers_total = %d, want %d", got, len(workers))
	}
	if got := reg.Counter("dist_worker_joins_total", "").Value(); got != int64(len(workers)) {
		t.Errorf("dist_worker_joins_total = %d, want %d", got, len(workers))
	}
	if got := reg.Counter("dist_worker_goodbyes_total", "").Value(); got != 0 {
		t.Errorf("dist_worker_goodbyes_total = %d, want 0 (nobody left cleanly)", got)
	}
	if got := reg.Gauge("dist_queue_depth", "").Value(); got != 0 {
		t.Errorf("dist_queue_depth = %v after the run, want 0", got)
	}
	if got := reg.Gauge("dist_inflight_jobs", "").Value(); got != 0 {
		t.Errorf("dist_inflight_jobs = %v after the run, want 0", got)
	}
	if got := reg.Counter("dist_results_merged_total", "").Value(); got < 1 {
		t.Errorf("dist_results_merged_total = %d, want >= 1", got)
	}
}
