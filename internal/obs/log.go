package obs

import (
	"io"
	"log/slog"
	"strings"
)

// The shared structured-log key vocabulary. Every dispatch diagnostic in
// the fleet uses these keys, so one grep (or one log-pipeline field)
// means the same thing on the coordinator, the workers, and the CLIs —
// the log table in docs/OPERATIONS.md is written against them.
const (
	// KeyWorker is a worker's display name ("proc 2", "hostB:9700").
	KeyWorker = "worker"
	// KeyBatch is a dispatch batch ID (they start at 1).
	KeyBatch = "batch"
	// KeyKey is a simulation's canonical machine|workload identity.
	KeyKey = "key"
	// KeyAttempt is a job's dispatch-attempt ordinal.
	KeyAttempt = "attempt"
	// KeyCause carries the error or reason behind an event.
	KeyCause = "cause"
	// KeyJobs counts jobs (queued, requeued, outstanding).
	KeyJobs = "jobs"
	// KeyWorkers counts fleet members.
	KeyWorkers = "workers"
	// KeyAddr is a network address (listeners, peers).
	KeyAddr = "addr"
	// KeyElastic marks a run whose fleet accepts mid-run joins.
	KeyElastic = "elastic"
)

// NewLogger returns the fleet's standard structured logger: slog text
// format at Info level to w (stderr in the CLIs — stdout carries only
// reports).
func NewLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// TestLogger returns a logger in NewLogger's format that hands each
// record to t.Log, so diagnostics show beside the output of the test
// that caused them. Pass the test's *testing.T.
func TestLogger(t interface{ Log(args ...any) }) *slog.Logger {
	return NewLogger(testLogWriter{t})
}

// testLogWriter writes each slog record, one Write per record, to t.Log.
type testLogWriter struct{ t interface{ Log(args ...any) } }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
