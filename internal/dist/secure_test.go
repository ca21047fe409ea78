package dist_test

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/obs"
)

// genCert writes a throwaway self-signed certificate and key, the test
// stand-in for the operator-generated certs of docs/OPERATIONS.md. The
// certificate doubles as its own CA bundle on the dialing side.
func genCert(t *testing.T) (certFile, keyFile string) {
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

// TestTLSTokenTransportRoundTrip runs a real dispatch over a real TCP
// connection wrapped in TLS with token auth — the full cmd/expd
// transport stack, worker dialing in as `expd join` does — and pins that
// results coming through it match a local run exactly.
func TestTLSTokenTransportRoundTrip(t *testing.T) {
	certFile, keyFile := genCert(t)
	coordSec := dist.Security{CertFile: certFile, KeyFile: keyFile, Token: "fleet-secret"}
	workerSec := dist.Security{CAFile: certFile, Token: "fleet-secret"}

	jobs := testJobs(4)
	want := localResults(t, jobs)
	plan, err := exp.Plan(jobs)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := coordSec.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serveErr := make(chan error, 1)
	go func() {
		conn, err := workerSec.Dial(ln.Addr().String())
		if err != nil {
			serveErr <- err
			return
		}
		defer conn.Close()
		if err := dist.Register(conn, "tls-worker"); err != nil {
			serveErr <- err
			return
		}
		serveErr <- dist.Serve(conn)
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := coordSec.Secure(conn)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dist.AcceptWorker(sc, conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	cache := exp.NewCache()
	if err := dist.Run(plan, []dist.Worker{w}, cache, dist.Options{Log: obs.TestLogger(t)}); err != nil {
		t.Fatalf("run over TLS+token transport: %v", err)
	}
	for i, sj := range plan {
		k := exp.KeyOf(sj)
		res, ok := cache.Lookup(k)
		if !ok {
			t.Fatalf("plan entry %d missing", i)
		}
		if res != want[k] {
			t.Errorf("plan entry %d diverged over TLS transport", i)
		}
	}
	if err := <-serveErr; err != nil {
		t.Errorf("worker over TLS: %v", err)
	}
}

// TestTLSDialRejectsWrongToken pins the accept-side ordering over the
// real transport: a TLS-valid dialer with the wrong fleet token is
// dropped by the preamble check before any protocol frame is processed.
func TestTLSDialRejectsWrongToken(t *testing.T) {
	certFile, keyFile := genCert(t)
	serverSec := dist.Security{CertFile: certFile, KeyFile: keyFile, Token: "fleet-secret"}

	ln, err := serverSec.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rejected := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			rejected <- err
			return
		}
		defer conn.Close()
		_, err = serverSec.Secure(conn)
		rejected <- err
	}()

	conn, err := dist.Security{CAFile: certFile, Token: "wrong"}.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := <-rejected; err == nil || !strings.Contains(err.Error(), "token") {
		t.Errorf("Secure with a wrong token = %v, want a token rejection", err)
	}
}
