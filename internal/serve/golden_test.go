package serve_test

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/serve"
	"icfp/internal/store"
)

// genFleetCert writes a throwaway self-signed certificate and key, the
// same shape the registry elastic-fleet golden test uses: it secures
// both the daemon's HTTPS front and the worker transport here.
func genFleetCert(t *testing.T) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "expq-test"},
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

// TestServiceFleetMatchesGoldenAndSurvivesRestart is the subsystem's
// acceptance pin, end to end: the full -all suite submitted to a live
// daemon backed by an elastic TLS+token worker fleet renders
// byte-identical to the committed single-process golden; then the
// daemon "restarts" (a second Server over a re-opened store, no fleet
// at all), and resubmitting everything is answered entirely from the
// persistent store — zero jobs dispatched, asserted via metrics.
func TestServiceFleetMatchesGoldenAndSurvivesRestart(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "cmd", "experiments", "testdata", "golden_all_tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	certFile, keyFile := genFleetCert(t)
	acceptSec := dist.Security{CertFile: certFile, KeyFile: keyFile, Token: "fleet-secret"}
	dialSec := dist.Security{CAFile: certFile, Token: "fleet-secret"}
	storeDir := t.TempDir()

	// The daemon's worker listener, exactly as cmd/expq wires it:
	// authenticate, read the register frame, feed the long-lived join
	// channel. The loop never stands down.
	wln, err := acceptSec.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wln.Close()
	join := make(chan dist.Worker)
	go func() {
		for {
			conn, err := wln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				sc, err := acceptSec.Secure(c)
				if err != nil {
					return
				}
				w, err := dist.AcceptWorker(sc, c.RemoteAddr().String())
				if err != nil {
					return
				}
				join <- w
			}(conn)
		}
	}()

	// Two elastic workers in the expd join shape: dial, register, serve
	// one coordinator round, redial. Each submission is its own dist.Run,
	// so redialing is what makes one fleet serve a whole session.
	workerDone := make(chan struct{})
	defer close(workerDone)
	for i := 0; i < 2; i++ {
		name := []string{"wA", "wB"}[i]
		go func(name string) {
			for {
				select {
				case <-workerDone:
					return
				default:
				}
				conn, err := dialSec.Dial(wln.Addr().String())
				if err != nil {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				if err := dist.Register(conn, name); err == nil {
					dist.Serve(conn)
				}
				conn.Close()
			}
		}(name)
	}

	// Daemon A: TLS+token HTTPS front, fleet backend, persistent store.
	regA := obs.NewRegistry()
	stA, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stA.Instrument(regA)
	srvA, err := serve.New(serve.Config{
		Store:    stA,
		Join:     join,
		DistOpts: dist.Options{Log: obs.TestLogger(t)},
		Token:    "fleet-secret",
		Metrics:  regA,
	})
	if err != nil {
		t.Fatal(err)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsA := &http.Server{Handler: srvA.Handler()}
	go hsA.ServeTLS(hln, certFile, keyFile)

	client, err := serve.NewClient("https://"+hln.Addr().String(), "fleet-secret", certFile, "")
	if err != nil {
		t.Fatal(err)
	}

	// Submit every -all experiment in order; the concatenation of the
	// per-experiment reports IS the -all output (how experiments -server
	// assembles it), so it must match the committed golden byte for byte.
	submitAll := func(c *serve.Client) ([]byte, int, int) {
		t.Helper()
		var out bytes.Buffer
		hits, jobs := 0, 0
		for _, name := range registry.DefaultNames() {
			rep, err := c.Submit(describe(t, name), func(e serve.Event) {
				if e.Event == "plan" {
					hits += e.StoreHits
					jobs += e.Jobs
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out.Write(rep)
		}
		return out.Bytes(), hits, jobs
	}

	outA, _, _ := submitAll(client)
	if !bytes.Equal(outA, golden) {
		t.Errorf("service output differs from the committed golden (%d vs %d bytes)", len(outA), len(golden))
	}
	if got := regA.Counter("dist_results_merged_total", "").Value(); got < 1 {
		t.Errorf("dist_results_merged_total = %d, want >= 1 (the fleet must have simulated)", got)
	}
	if got := regA.Counter("expq_store_puts_total", "").Value(); got < 1 {
		t.Errorf("expq_store_puts_total = %d, want >= 1", got)
	}

	// "Restart": tear the daemon down and bring up a fresh Server over a
	// re-opened store — no fleet, and a local pool that must never run.
	hsA.Close()
	regB := obs.NewRegistry()
	stB, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stB.Instrument(regB)
	srvB, err := serve.New(serve.Config{Store: stB, LocalParallel: 1, Metrics: regB})
	if err != nil {
		t.Fatal(err)
	}
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	clientB, err := serve.NewClient(hsB.URL, "", "", "")
	if err != nil {
		t.Fatal(err)
	}

	outB, hits, jobs := submitAll(clientB)
	if !bytes.Equal(outB, golden) {
		t.Errorf("post-restart output differs from the committed golden (%d vs %d bytes)", len(outB), len(golden))
	}
	if hits != jobs || jobs == 0 {
		t.Errorf("post-restart plans: %d store hits of %d jobs, want all from the store", hits, jobs)
	}
	if got := regB.Counter("expq_dispatched_jobs_total", "").Value(); got != 0 {
		t.Errorf("post-restart daemon dispatched %d jobs, want 0 (everything persisted)", got)
	}
	if got := regB.Counter("expq_store_hits_total", "").Value(); got != int64(jobs) {
		t.Errorf("expq_store_hits_total = %d, want %d", got, jobs)
	}
}
