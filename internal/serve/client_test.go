package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"icfp/internal/serve"
)

// streamServer answers every submission with the given NDJSON lines.
func streamServer(t *testing.T, lines ...[]byte) *serve.Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, l := range lines {
			w.Write(l)
			w.Write([]byte("\n"))
		}
	}))
	t.Cleanup(ts.Close)
	c, err := serve.NewClient(ts.URL, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func event(t *testing.T, e serve.Event) []byte {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSubmitReturnsLargeReport pins that a report larger than the suite
// bound comes back whole: the daemon renders reports of any size, and
// the client reads the stream with no cap on one event.
func TestSubmitReturnsLargeReport(t *testing.T) {
	// 9 MiB of report text with bytes JSON must escape.
	unit := "fig6 │ \"mcf\"\t<12.5%>\n"
	report := []byte(strings.Repeat(unit, 9<<20/len(unit)+1))
	if len(report) <= serve.MaxSuiteBytes {
		t.Fatalf("report of %d bytes does not exceed the %d-byte suite bound", len(report), serve.MaxSuiteBytes)
	}
	c := streamServer(t,
		event(t, serve.Event{Event: "plan", Jobs: 1, StoreHits: 1}),
		event(t, serve.Event{Event: "output", Data: string(report)}),
		event(t, serve.Event{Event: "done"}))
	var seen []string
	out, err := c.Submit([]byte(`{}`), func(e serve.Event) { seen = append(seen, e.Event) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, report) {
		t.Errorf("report of %d bytes came back as %d bytes, not byte-identical", len(report), len(out))
	}
	if got := strings.Join(seen, ","); got != "plan,output,done" {
		t.Errorf("events %s, want plan,output,done", got)
	}
}

// TestSubmitStreamErrors pins the three ways a stream fails: an event
// that does not decode, an error event, and a stream that ends without
// done.
func TestSubmitStreamErrors(t *testing.T) {
	output := event(t, serve.Event{Event: "output", Data: "report\n"})
	for _, tc := range []struct {
		name  string
		lines [][]byte
		want  string
	}{
		{"undecodable", [][]byte{output, []byte(`{"event":`)}, "undecodable event"},
		{"error event", [][]byte{output, event(t, serve.Event{Event: "error", Error: "boom"})}, "daemon: boom"},
		{"no done", [][]byte{output}, "without a done event"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := streamServer(t, tc.lines...).Submit([]byte(`{}`), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Submit error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
