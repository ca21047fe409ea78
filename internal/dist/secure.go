package dist

import (
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// Security configures transport protection for the TCP endpoints
// (cmd/expd): TLS on the stream and a shared-token preamble that the
// dialing side must present before the accepting side processes a single
// protocol frame. The zero value is plaintext and unauthenticated — fine
// for loopback and tests, never for anything routable (see
// docs/OPERATIONS.md for the multi-host setup).
//
// Workers dial coordinators (expd join → -accept-workers), so the
// coordinator is the acceptor and each worker a dialer. CertFile/KeyFile
// arm the accepting side; CAFile arms the dialing side; Token arms both.
type Security struct {
	// CertFile and KeyFile are the accepting side's PEM certificate and
	// key; both set enables TLS on Listen.
	CertFile, KeyFile string
	// CAFile is a PEM bundle the dialing side trusts (typically the
	// accepting side's self-signed certificate itself, or the CA that
	// issued it); set, it enables TLS on Dial.
	CAFile string
	// ServerName overrides the hostname verified against the acceptor's
	// certificate (needed when dialing by IP with a name-only cert).
	ServerName string
	// Token is the fleet's shared secret. The dialer sends a fixed-size
	// hash preamble before the first frame; the acceptor verifies it in
	// constant time and drops the connection on any mismatch.
	Token string
}

// The token preamble: a magic tag so a plaintext protocol frame can
// never be mistaken for an auth attempt, then the SHA-256 of the token.
// Fixed size, so the acceptor reads exactly one preamble and nothing of
// a correct stream's first frame.
const authMagic = "icfpdst3"

const authLen = len(authMagic) + sha256.Size

// authPreamble builds the dialer's proof of token possession.
func authPreamble(token string) []byte {
	p := make([]byte, 0, authLen)
	p = append(p, authMagic...)
	sum := sha256.Sum256([]byte(token))
	return append(p, sum[:]...)
}

// WriteAuth sends the token preamble; the dialer's first bytes on an
// authenticated connection.
func WriteAuth(w io.Writer, token string) error {
	if _, err := w.Write(authPreamble(token)); err != nil {
		return fmt.Errorf("dist: sending auth preamble: %w", err)
	}
	return nil
}

// VerifyAuth reads and checks the dialer's token preamble. It must be
// called before any ReadMessage on an authenticated connection: a wrong
// or missing token fails here, so no protocol frame from an
// unauthenticated peer is ever processed. The comparison is constant
// time.
func VerifyAuth(r io.Reader, token string) error {
	got := make([]byte, authLen)
	if _, err := io.ReadFull(r, got); err != nil {
		return fmt.Errorf("dist: reading auth preamble: %w", err)
	}
	if subtle.ConstantTimeCompare(got, authPreamble(token)) != 1 {
		return fmt.Errorf("dist: peer presented a wrong or missing auth token")
	}
	return nil
}

// authTimeout bounds how long an acceptor waits for a dialer's preamble,
// so an idle or hostile connection cannot pin an accept slot forever.
const authTimeout = 10 * time.Second

// Secure completes the accepting side of a new connection: it verifies
// the token preamble (when a token is configured) under a deadline and
// returns the connection ready for protocol frames. On failure the
// connection is closed.
func (s Security) Secure(conn net.Conn) (net.Conn, error) {
	if s.Token == "" {
		return conn, nil
	}
	conn.SetReadDeadline(time.Now().Add(authTimeout))
	if err := VerifyAuth(conn, s.Token); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	return conn, nil
}

// Listen opens a TCP listener at addr, wrapped in TLS when CertFile and
// KeyFile are set. Callers must still pass each accepted connection
// through Secure before speaking the protocol.
func (s Security) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listening on %s: %w", addr, err)
	}
	if s.CertFile == "" && s.KeyFile == "" {
		return ln, nil
	}
	if s.CertFile == "" || s.KeyFile == "" {
		ln.Close()
		return nil, fmt.Errorf("dist: -tls-cert and -tls-key must be set together")
	}
	cert, err := tls.LoadX509KeyPair(s.CertFile, s.KeyFile)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("dist: loading TLS keypair: %w", err)
	}
	return tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}), nil
}

// Dial connects to addr — over TLS when CAFile is set, plaintext
// otherwise — and sends the token preamble when a token is configured,
// returning a connection ready for protocol frames.
func (s Security) Dial(addr string) (net.Conn, error) {
	var conn net.Conn
	var err error
	if s.CAFile != "" {
		pem, rerr := os.ReadFile(s.CAFile)
		if rerr != nil {
			return nil, fmt.Errorf("dist: reading TLS CA bundle: %w", rerr)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("dist: no certificates found in %s", s.CAFile)
		}
		cfg := &tls.Config{RootCAs: pool, ServerName: s.ServerName, MinVersion: tls.VersionTLS12}
		if cfg.ServerName == "" {
			host, _, herr := net.SplitHostPort(addr)
			if herr != nil {
				host = addr
			}
			cfg.ServerName = host
		}
		conn, err = tls.Dial("tcp", addr, cfg)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: connecting to %s: %w", addr, err)
	}
	if s.Token != "" {
		if err := WriteAuth(conn, s.Token); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return conn, nil
}
