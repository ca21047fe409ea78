package dist

import (
	"io"
	"net"
)

// Worker is one remote worker from the coordinator's point of view: a
// name for error context (the name it registered under, or the dialing
// address) and the protocol transport. The coordinator owns the transport and closes it when the
// run ends; stream-level workers (Serve) treat that close as the
// shutdown signal.
type Worker struct {
	Name string
	RW   io.ReadWriteCloser
}

// CloseAll closes every worker transport, the cleanup owed on any path
// that stops short of (or finishes) dispatch. Closes are idempotent, so
// overlapping cleanup paths are safe.
func CloseAll(workers []Worker) {
	for _, w := range workers {
		w.RW.Close()
	}
}

// Pipe returns a connected in-process transport pair, the test harness
// for coordinator/worker runs without processes: Serve one end, hand the
// other to the coordinator.
func Pipe() (coord, worker io.ReadWriteCloser) {
	return net.Pipe()
}
