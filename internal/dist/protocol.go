// Package dist runs an experiment plan across worker processes and
// hosts. It is the layer between the exp harness and the CLIs: a
// coordinator takes the deduplicated plan of a job set (exp.Plan), shards
// it over any number of workers with work-stealing dispatch (workers pull
// batches, so a slow shard never straggles the run), and merges the
// exp.CachedResults the workers stream back into a shared *exp.Cache. The
// caller then renders its report locally from the warm cache, which makes
// distributed output byte-identical to a single-process run at any worker
// count: simulations are deterministic pure functions of their specs, and
// pipeline.Result round-trips JSON exactly.
//
// Coordinator and worker speak a length-delimited JSON protocol over an
// abstract transport: net.Pipe in tests, or a TCP connection a worker
// dials into a coordinator (cmd/expd join) — optionally wrapped in TLS with a
// shared-token preamble (Security) when the fleet spans more than a
// trusted loopback. Since protocol v2 every batch carries
// self-describing spec.Jobs — a worker needs no prior copy of the job
// table, no registry, and no handshake cross-check beyond the protocol
// version, so heterogeneous fleets (different binaries, elastically
// joining workers) interoperate as long as they speak the same spec
// vocabulary.
//
// Protocol v3 makes fleets elastic. Workers may dial a long-lived
// coordinator and announce themselves with a register frame
// (Register/AcceptWorker), join a run already in flight (Options.Join),
// and leave it cleanly with a goodbye frame — everything they streamed
// back before leaving is kept, and only their unfinished remainder is
// redispatched.
//
// Protocol v4 adds coordinator heartbeats: the init frame announces an
// interval and the coordinator beacons on it, so an idle worker whose
// coordinator vanished (host gone, network partition) notices within a
// few intervals instead of waiting out TCP keepalive. The package is
// also instrumented end to end (internal/obs): Options.Metrics exposes
// queue depth, per-worker batch counters, requeues and retirements on
// the coordinator; WithMetrics does the same for a serving worker,
// including a last-heartbeat-age gauge. Protocol v5 drops v3's
// cost-report frame: batches are cut at workload boundaries, which
// needs no wall-time feedback. The full frame catalog lives in
// docs/ARCHITECTURE.md.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"icfp/internal/exp"
	"icfp/internal/spec"
)

// ProtoVersion identifies the wire protocol. Version 2 replaced the v1
// job-table handshake (an opaque registry spec plus a table-size
// cross-check) with self-describing spec.Job batches; version 3 added
// the elastic-fleet frames (register, goodbye) and per-key cost reports;
// version 4 added coordinator liveness heartbeats (the init frame
// announces the interval, heartbeat frames keep idle connections
// provably alive); version 5 removed the cost reports. Coordinator and
// workers must match exactly: results are only portable between
// compatible simulators, so version skew is a handshake error —
// reported with both versions named — not something to paper over.
const ProtoVersion = 5

// maxFrame bounds one protocol frame. The largest real frames are batch
// messages (a few spec jobs) and single results — far below this; the
// bound exists so a corrupt or malicious length prefix cannot trigger an
// unbounded allocation.
const maxFrame = 64 << 20

// Message types, in handshake-then-dispatch order.
const (
	// TypeRegister is worker → coordinator, and only on connections the
	// worker dialed (elastic join): the worker announces its protocol
	// version and display name before the normal init/ready handshake.
	// Coordinator-dialed workers skip it — the dialer already knows who
	// it connected to.
	TypeRegister = "register"
	// TypeInit is coordinator → worker: the protocol version plus the
	// worker-pool parallelism to simulate with.
	TypeInit = "init"
	// TypeReady is worker → coordinator: the handshake reply.
	TypeReady = "ready"
	// TypeBatch is coordinator → worker: one batch of self-describing
	// plan jobs to simulate.
	TypeBatch = "batch"
	// TypeResult is worker → coordinator: one completed simulation,
	// streamed as soon as it finishes (not held until the batch ends).
	TypeResult = "result"
	// TypeBatchDone is worker → coordinator: every job of the identified
	// batch has been simulated and its result sent.
	TypeBatchDone = "batch_done"
	// TypeHeartbeat is coordinator → worker: a liveness beacon sent
	// every Options.Heartbeat while the run is up. The init frame
	// announces the interval (HeartbeatNS); a worker that has seen no
	// frame at all for several intervals concludes the coordinator is
	// gone — much faster than TCP keepalive notices a vanished peer —
	// and abandons the connection with ErrCoordinatorLost. Workers never
	// send heartbeats: their liveness is covered by Options.FrameTimeout.
	TypeHeartbeat = "heartbeat"
	// TypeGoodbye is worker → coordinator: the worker is leaving the
	// fleet (operator drain, host reclaim). Results it already streamed
	// are kept; the unfinished remainder of any in-flight batch is
	// redispatched to the survivors without counting as a failure.
	TypeGoodbye = "goodbye"
	// TypeError, in either direction, reports a fatal condition with
	// context; the receiver aborts the run.
	TypeError = "error"
)

// Message is one protocol frame. Type selects which of the remaining
// fields are meaningful.
type Message struct {
	Type string `json:"type"`

	// Init and Register.
	Proto int `json:"proto,omitempty"`
	// Parallel is the worker's pool size; values below 1 mean the
	// worker's GOMAXPROCS.
	Parallel int `json:"parallel,omitempty"`
	// Name is the registering worker's display name (register only).
	Name string `json:"name,omitempty"`
	// HeartbeatNS is the coordinator's heartbeat interval in nanoseconds
	// (init only); zero means heartbeats are off for this connection.
	HeartbeatNS int64 `json:"heartbeat_ns,omitempty"`

	// Batch and BatchDone. Batch IDs start at 1 so a zero ID always
	// means "absent". Jobs are self-describing: each carries the full
	// machine and workload spec it names.
	BatchID int        `json:"batch_id,omitempty"`
	Jobs    []spec.Job `json:"jobs,omitempty"`

	// Result.
	Result *exp.CachedResult `json:"result,omitempty"`

	// Error.
	Err string `json:"err,omitempty"`
}

// WriteMessage frames m as a 4-byte big-endian length prefix followed by
// its JSON encoding, in a single Write call so frames on a shared stream
// are never interleaved by the transport.
func WriteMessage(w io.Writer, m *Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encoding %s frame: %w", m.Type, err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("dist: %s frame of %d bytes exceeds the %d-byte limit", m.Type, len(body), maxFrame)
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("dist: writing %s frame: %w", m.Type, err)
	}
	return nil
}

// ReadMessage reads one length-delimited frame. A clean end of stream
// between frames surfaces as io.EOF; a stream cut mid-frame as
// io.ErrUnexpectedEOF.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dist: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("dist: reading %d-byte frame body: %w", n, err)
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("dist: decoding frame: %w", err)
	}
	return &m, nil
}
