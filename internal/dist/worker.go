package dist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"icfp/internal/exp"
	"icfp/internal/obs"
)

// maxWorkerParallel caps the coordinator-requested pool size: the spec
// arrives over the network on TCP workers, and no legitimate coordinator
// asks for a wider pool than any real machine has.
const maxWorkerParallel = 4096

// ServeOption configures a worker.
type ServeOption func(*serveOptions)

type serveOptions struct {
	onRun func(exp.Key)
	leave <-chan struct{}
	reg   *obs.Registry
}

// OnSimulate installs a hook invoked once per actual simulation this
// worker performs (never for its cache hits) — metrics and tests.
func OnSimulate(f func(exp.Key)) ServeOption {
	return func(o *serveOptions) { o.onRun = f }
}

// WithMetrics attaches a metrics registry to the serving worker: the
// connection's simulation cache is instrumented (exp_cache_* plus the
// per-model exp_sim_* totals — the worker-side sim rate), and
// dist_heartbeat_age_seconds reports how long ago the coordinator last
// proved liveness (any frame counts; heartbeats keep it fresh while
// idle). Re-registering across redials replaces the gauge cleanly.
func WithMetrics(reg *obs.Registry) ServeOption {
	return func(o *serveOptions) { o.reg = reg }
}

// ErrCoordinatorLost reports that a worker abandoned its connection
// because the coordinator announced a heartbeat interval and then went
// silent for several intervals — the fast-path detection of a vanished
// coordinator (host gone, network partition) that TCP keepalive would
// take minutes to notice. Redialing is the caller's policy (expd join
// exits; a supervisor restarts it).
var ErrCoordinatorLost = errors.New("dist: coordinator heartbeat lost")

// heartbeatGrace is how many announced intervals of total silence a
// worker tolerates before declaring the coordinator lost.
const heartbeatGrace = 3

// LeaveOn makes the worker leave the fleet when ch is closed: a goodbye
// frame is sent (interleaving safely with any in-flight result stream),
// the batch's remaining simulations are abandoned (each pool worker at
// most finishes the one it is mid-flight on), further outbound frames
// are suppressed, and Serve returns once the coordinator — which
// requeues the batch's unfinished remainder and keeps everything already
// streamed — closes the connection. Close the channel; the leave signal
// has two independent waiters (the goodbye sender and the simulation
// pool's cancel), and only a close reaches both. This is the drain path
// behind `expd join`'s SIGINT/SIGTERM handling.
func LeaveOn(ch <-chan struct{}) ServeOption {
	return func(o *serveOptions) { o.leave = ch }
}

// Register announces a dialing worker to an accepting coordinator
// (cmd/expd join → -accept-workers): one register frame carrying the
// protocol version and the worker's display name, sent before the
// normal init/ready handshake that the coordinator initiates. The
// matching accept side is AcceptWorker.
func Register(rw io.Writer, name string) error {
	return WriteMessage(rw, &Message{Type: TypeRegister, Proto: ProtoVersion, Name: name})
}

// AcceptWorker completes the coordinator side of an elastic join: it
// reads the dialer's register frame, rejects protocol-version skew with
// an error frame naming both versions, and returns the worker handle to
// feed into Options.Join. Transport security (Security.Secure) must
// already have run: by the time a register frame is parsed the peer has
// proven token possession. fallbackName names the worker when the
// register frame carries no name (typically the remote address).
//
// The register read is bounded by a deadline on transports that support
// one, so a connected-but-silent peer (port scanner, health check)
// cannot pin an accept goroutine and its connection forever.
func AcceptWorker(rw io.ReadWriteCloser, fallbackName string) (Worker, error) {
	if rd, ok := rw.(readDeadliner); ok {
		rd.SetReadDeadline(time.Now().Add(authTimeout))
		defer rd.SetReadDeadline(time.Time{})
	}
	m, err := ReadMessage(rw)
	if err != nil {
		rw.Close()
		return Worker{}, fmt.Errorf("dist: reading register frame: %w", err)
	}
	if m.Type != TypeRegister {
		WriteMessage(rw, &Message{Type: TypeError, Err: fmt.Sprintf("expected a %q frame, got %q", TypeRegister, m.Type)})
		rw.Close()
		return Worker{}, fmt.Errorf("dist: expected a %q frame, got %q", TypeRegister, m.Type)
	}
	if m.Proto != ProtoVersion {
		err := fmt.Sprintf("protocol version mismatch: joining worker speaks v%d, this coordinator speaks v%d", m.Proto, ProtoVersion)
		WriteMessage(rw, &Message{Type: TypeError, Err: err})
		rw.Close()
		return Worker{}, errors.New("dist: " + err)
	}
	name := m.Name
	if name == "" {
		name = fallbackName
	}
	return Worker{Name: name, RW: rw}, nil
}

// workerConn serializes a worker's outbound frames: results stream from
// the simulation pool's completion hook while a leave signal may inject
// a goodbye from another goroutine, and a frame must never interleave
// with another mid-write. After goodbye, every other outbound frame is
// suppressed — the coordinator has already written this worker off.
type workerConn struct {
	rw   io.ReadWriter
	mu   sync.Mutex
	left bool
}

func (c *workerConn) send(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left {
		return nil
	}
	return WriteMessage(c.rw, m)
}

func (c *workerConn) goodbye() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left {
		return nil
	}
	c.left = true
	return WriteMessage(c.rw, &Message{Type: TypeGoodbye})
}

// Serve runs the worker side of the protocol on rw until the coordinator
// closes the connection (the clean shutdown, returning nil) or an error
// occurs. Batches are self-describing — each job carries its full
// machine and workload spec — so the worker needs no prior knowledge of
// the coordinator's job set; it validates each spec strictly and reports
// invalid ones as fatal errors. The worker keeps its own cache for the
// lifetime of the connection, so a job re-dispatched after a
// coordinator-side retry is answered from cache rather than
// re-simulated. Each batch runs on exp.Run's own arena, which frees a
// workload once the batch's last job over it is done. Completed results
// are streamed back the moment each simulation finishes, each carrying
// its wall time.
func Serve(rw io.ReadWriter, opts ...ServeOption) error {
	var so serveOptions
	for _, opt := range opts {
		opt(&so)
	}
	conn := &workerConn{rw: rw}
	if so.leave != nil {
		leaveDone := make(chan struct{})
		defer close(leaveDone)
		go func() {
			select {
			case <-so.leave:
				conn.goodbye() // best effort: the coordinator may already be gone
			case <-leaveDone:
			}
		}()
	}
	m, err := ReadMessage(rw)
	if err == io.EOF || errors.Is(err, io.ErrClosedPipe) {
		return nil // coordinator had nothing to dispatch (warm cache) and closed us
	}
	if err != nil {
		return fmt.Errorf("dist: worker handshake: %w", err)
	}
	if m.Type != TypeInit {
		return sendError(conn, fmt.Sprintf("handshake: got %q frame, want %q", m.Type, TypeInit))
	}
	if m.Proto != ProtoVersion {
		return sendError(conn, fmt.Sprintf("protocol version mismatch: coordinator speaks v%d, this worker speaks v%d", m.Proto, ProtoVersion))
	}
	if m.Parallel > maxWorkerParallel {
		return sendError(conn, fmt.Sprintf("requested parallelism %d exceeds the worker cap %d", m.Parallel, maxWorkerParallel))
	}
	parallel := m.Parallel
	hb := time.Duration(m.HeartbeatNS)
	if err := conn.send(&Message{Type: TypeReady}); err != nil {
		return err
	}

	// Any frame proves coordinator liveness; the handshake seeds the
	// clock so the age gauge never reads from the epoch.
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	so.reg.GaugeFunc("dist_heartbeat_age_seconds", "seconds since the coordinator last proved liveness (any frame)",
		func() float64 { return time.Since(time.Unix(0, lastBeat.Load())).Seconds() })

	cache := exp.NewCache()
	cache.Instrument(so.reg)
	deadline, canDeadline := rw.(readDeadliner)
	for {
		// While heartbeats are announced, an idle wait is bounded: total
		// silence past the grace window means the coordinator is gone.
		if hb > 0 && canDeadline {
			deadline.SetReadDeadline(time.Now().Add(heartbeatGrace * hb))
		}
		m, err := ReadMessage(rw)
		if hb > 0 && canDeadline {
			deadline.SetReadDeadline(time.Time{})
		}
		if err == io.EOF || errors.Is(err, io.ErrClosedPipe) {
			return nil // coordinator closed the connection: run complete, or this worker's goodbye was honored
		}
		if err != nil {
			if conn.hasLeft() {
				// A post-goodbye transport teardown is the expected end
				// of a drained connection, not a failure.
				return nil
			}
			if hb > 0 && errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("%w: no frame for %v (announced interval %v)", ErrCoordinatorLost, heartbeatGrace*hb, hb)
			}
			return err
		}
		lastBeat.Store(time.Now().UnixNano())
		switch m.Type {
		case TypeHeartbeat:
			// Liveness only; the timestamp above is the whole point.
		case TypeBatch:
			if err := serveBatch(conn, m, cache, parallel, &so); err != nil {
				return err
			}
		case TypeError:
			return fmt.Errorf("dist: coordinator error: %s", m.Err)
		default:
			return sendError(conn, fmt.Sprintf("unexpected %q frame between batches", m.Type))
		}
	}
}

func (c *workerConn) hasLeft() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.left
}

// serveBatch simulates one self-describing batch and streams its
// results. Results are sent from the pool's completion hook, so the
// coordinator can merge (and checkpoint) them while the rest of the
// batch is still running.
func serveBatch(conn *workerConn, m *Message, cache *exp.Cache, parallel int, so *serveOptions) error {
	batch := make([]exp.Job, 0, len(m.Jobs))
	seen := make(map[exp.Key]bool, len(m.Jobs))
	for _, sj := range m.Jobs {
		if err := sj.Validate(); err != nil {
			return sendError(conn, fmt.Sprintf("batch %d: invalid job spec: %v", m.BatchID, err))
		}
		k := exp.KeyOf(sj)
		if seen[k] {
			continue // the plan never repeats a key; tolerate duplicates anyway
		}
		seen[k] = true
		// The key is the unique in-batch job name; results are keyed,
		// not named, so the name never leaves this process.
		batch = append(batch, exp.Job{Name: k.Machine + "|" + k.Workload, Machine: sj.Machine, Workload: sj.Workload})
	}

	var sendErr error
	sent := make(map[exp.Key]bool, len(batch))
	send := func(k exp.Key) {
		if sendErr != nil {
			return
		}
		res, ok := cache.Lookup(k)
		if !ok {
			return // cannot happen: the hook fires after the result is published
		}
		sent[k] = true
		elapsed, _ := cache.Elapsed(k)
		sendErr = conn.send(&Message{Type: TypeResult, Result: &exp.CachedResult{
			Machine: k.Machine, Workload: k.Workload, R: res, ElapsedNS: int64(elapsed),
		}})
	}
	hook := func(k exp.Key) {
		if so.onRun != nil {
			so.onRun(k)
		}
		send(k)
	}
	runOpts := []exp.Option{
		exp.WithCache(cache), exp.Parallelism(parallel),
		exp.OnRun(hook),
	}
	if so.leave != nil {
		runOpts = append(runOpts, exp.Cancel(so.leave))
	}
	_, err := exp.Run(batch, runOpts...)
	if errors.Is(err, exp.ErrCanceled) {
		// Leaving the fleet: the goodbye is already on the wire and the
		// coordinator has requeued whatever this batch still owed.
		return nil
	}
	if err != nil {
		return sendError(conn, fmt.Sprintf("batch %d: %v", m.BatchID, err))
	}
	if sendErr != nil {
		return sendErr
	}
	// Jobs answered from this worker's cache (re-dispatched after a
	// coordinator retry) never reach the completion hook; send them now.
	for _, j := range batch {
		if k := j.Key(); !sent[k] {
			send(k)
		}
	}
	if sendErr != nil {
		return sendErr
	}
	return conn.send(&Message{Type: TypeBatchDone, BatchID: m.BatchID})
}

// sendError reports a fatal worker-side condition to the coordinator and
// returns it as this side's error too.
func sendError(conn *workerConn, msg string) error {
	conn.send(&Message{Type: TypeError, Err: msg}) // best effort: the transport may already be down
	return errors.New("dist: worker: " + msg)
}
