package serve

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
)

// Client submits suites to a running expq daemon and folds the NDJSON
// event stream back into the same artifacts a local run produces: the
// rendered report bytes, verbatim.
type Client struct {
	base  string
	token string
	http  *http.Client
}

// NewClient returns a client for the daemon at base (e.g.
// "http://host:9800" or "https://..."). caFile, when non-empty, pins
// the daemon's TLS certificate authority — the same -tls-ca file the
// dist fleet dials with; serverName overrides TLS hostname verification
// (for CAs whose certificates name a canonical host).
func NewClient(base string, token, caFile, serverName string) (*Client, error) {
	c := &Client{base: strings.TrimRight(base, "/"), token: token, http: &http.Client{}}
	if caFile != "" || serverName != "" {
		tc := &tls.Config{ServerName: serverName}
		if caFile != "" {
			pem, err := os.ReadFile(caFile)
			if err != nil {
				return nil, fmt.Errorf("serve: reading CA file: %w", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				return nil, fmt.Errorf("serve: no certificates in CA file %s", caFile)
			}
			tc.RootCAs = pool
		}
		c.http = &http.Client{Transport: &http.Transport{TLSClientConfig: tc}}
	}
	return c, nil
}

// Submit sends one suite document and consumes the event stream until
// done or error. onEvent, when non-nil, observes every event as it
// arrives (progress display); the returned bytes are the daemon's
// rendered report, byte-identical to running the suite locally.
func (c *Client) Submit(suiteJSON []byte, onEvent func(Event)) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/submit", bytes.NewReader(suiteJSON))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	// One decoder reads the whole stream: the output event carries the
	// rendered report, of any size, as one value.
	dec := json.NewDecoder(resp.Body)
	var out []byte
	completed := false
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("serve: undecodable event stream at byte %d: %w", dec.InputOffset(), err)
		}
		if onEvent != nil {
			onEvent(e)
		}
		switch e.Event {
		case "output":
			out = []byte(e.Data)
		case "done":
			completed = true
		case "error":
			return nil, fmt.Errorf("serve: daemon: %s", e.Error)
		}
	}
	if !completed {
		return nil, fmt.Errorf("serve: response stream ended without a done event")
	}
	return out, nil
}
