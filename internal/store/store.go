// Package store is the persistent, content-addressed simulation result
// store: the one persistence layer, behind the expq service
// (internal/serve, the -store flag of cmd/expq) and the -store flag of
// cmd/experiments. Each completed simulation is one record on disk,
// addressed by the SHA-256 of its canonical (machine, workload) spec
// pair — the same collision-free identity internal/exp memoizes on and
// internal/dist ships over the wire — in a two-level fanout directory
// layout, so any number of processes can read and append concurrently
// without ever rewriting a shared file.
//
// Writes are atomic (unique temp file, fsync, rename): a crash leaves
// either no record or a complete one, never a torn file, and concurrent
// writers of one key cannot clobber each other mid-write. Identity is
// enforced optimistically: simulations are deterministic pure functions
// of their specs, so two writers of one key must produce byte-identical
// results — the first writer wins and later identical Puts are no-ops,
// while a byte-level result difference is a *ConflictError* (a
// determinism violation, never to be papered over). The store is
// bounded: with a positive MaxBytes, least-recently-accessed records are
// evicted after each Put, so a long-lived daemon's disk footprint stays
// under the knob.
//
// The in-memory index keeps each record's decoded result once this
// process has read or written it, keyed by the record's exp.Key, so a
// repeat lookup (every resubmitted suite) is one map lookup: no hashing,
// no path, no system call. The bound covers those copies too: a decoded
// result is smaller than its indented on-disk record, and evicting a
// record drops its copy. A record that fails to decode is moved aside as
// damaged and its key reads as a miss, so one bad file costs one
// re-simulation rather than failing its key forever.
//
// Access times: the in-memory LRU clock eviction runs on is exact (every
// Get stamps it), while a record file's mtime — the clock Open reads
// back — is refreshed at most once per touchInterval. A restarted
// process therefore recovers the LRU order to within that interval, and
// a resubmission answered from memory writes nothing to disk.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"icfp/internal/exp"
	"icfp/internal/obs"
)

// RecordVersion identifies the on-disk record schema. Records embed the
// exp.CachedResult layout (machine, workload, result, elapsed_ns), so
// the additive-fields versioning rules of docs/ARCHITECTURE.md apply
// here too: new optional fields do not bump the version, re-keyings do.
const RecordVersion = 1

// record is the on-disk layout of one result file.
type record struct {
	Version int `json:"version"`
	exp.CachedResult
}

// ConflictError reports a Put whose key already holds a byte-different
// result: two simulators disagreed about a deterministic function. This
// is fatal by design — serving either record would silently corrupt
// someone's results — so callers must surface it, not retry it.
type ConflictError struct {
	Path              string
	Machine, Workload string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("store: result conflict for (%s | %s): %s already holds a byte-different result (determinism violation — delete the store only after finding the divergent simulator)",
		e.Machine, e.Workload, e.Path)
}

// Options configure an opened store.
type Options struct {
	// MaxBytes bounds the store's total record bytes: after each Put,
	// least-recently-accessed records are evicted until the total is
	// back under the bound. Zero means unbounded.
	MaxBytes int64
}

// touchInterval is how far a record file's mtime may lag the in-memory
// access time: a hit rewrites the mtime only when the stamp this process
// last wrote or read for it is at least this old.
const touchInterval = time.Minute

// now is the store's clock; tests swap it (export_test.go).
var now = time.Now

// recMeta is the in-memory index entry of one on-disk record.
type recMeta struct {
	hash string
	size int64
	// access is the LRU clock: the last Get or Put in this process, or
	// the file's mtime at Open. stamp is the file's mtime as this process
	// last read or wrote it (zero when unknown).
	access, stamp time.Time
	// res is the record's decoded result once this process has read or
	// written it, nil before. It leaves the index with the entry.
	res *exp.CachedResult
}

// due reports whether a hit at t must refresh the file's mtime, taking t
// as the new stamp if so; the caller holds mu.
func (m *recMeta) due(t time.Time) bool {
	if t.Sub(m.stamp) < touchInterval {
		return false
	}
	m.stamp = t
	return true
}

// Store is one on-disk result store. It is safe for concurrent use by
// multiple goroutines, and the on-disk format is safe for concurrent
// use by multiple processes (atomic per-record writes; the in-memory
// byte accounting of other processes' records refreshes lazily as keys
// are read).
type Store struct {
	dir      string
	maxBytes int64

	mu   sync.Mutex
	recs map[string]*recMeta // hash → size, access times, decoded result
	// decoded indexes the entries holding a decoded result by key: the
	// whole cost of a repeat Get.
	decoded map[exp.Key]*recMeta
	bytes   int64
	// drops counts index entries removed (evicted, found gone, or
	// quarantined). A result read or written outside mu is kept as the
	// entry's decoded copy only if no drop ran meanwhile: that drop may
	// have removed the very file the result came from, and this process
	// must never serve a record it evicted itself.
	drops uint64

	// Telemetry (Instrument); every method on the nil zero values is a
	// no-op, so an uninstrumented store pays one nil check per event.
	hits, misses, puts, evictions, corrupt *obs.Counter
}

// Open opens (creating if needed) the store rooted at dir and indexes
// its existing records.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, maxBytes: opts.MaxBytes, recs: make(map[string]*recMeta), decoded: make(map[exp.Key]*recMeta)}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Instrument attaches a metrics registry: expq_store_hits_total /
// expq_store_misses_total (Get outcomes), expq_store_puts_total (new
// records written), expq_store_evictions_total,
// expq_store_corrupt_total (damaged records quarantined), and the
// expq_store_bytes / expq_store_records gauges. A nil registry detaches.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits = reg.Counter("expq_store_hits_total", "store lookups answered from a persisted record")
	s.misses = reg.Counter("expq_store_misses_total", "store lookups that found no record")
	s.puts = reg.Counter("expq_store_puts_total", "new records written to the store")
	s.evictions = reg.Counter("expq_store_evictions_total", "records evicted to stay under the byte bound")
	s.corrupt = reg.Counter("expq_store_corrupt_total", "damaged records moved aside as *.corrupt and re-simulated")
	reg.GaugeFunc("expq_store_bytes", "total bytes of persisted result records", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.bytes)
	})
	reg.GaugeFunc("expq_store_records", "persisted result records", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.recs))
	})
}

// HashKey returns the content address of a simulation: the SHA-256 hex
// digest of its canonical machine and workload encodings. Equal keys
// construct identical simulations (the spec package's contract), so the
// hash is a collision-free record identity.
func HashKey(k exp.Key) string {
	h := sha256.New()
	h.Write([]byte(k.Machine))
	h.Write([]byte{0}) // unambiguous split: canonical JSON never contains NUL
	h.Write([]byte(k.Workload))
	return hex.EncodeToString(h.Sum(nil))
}

// pathFor returns the record file of a hash: a two-hex-character fanout
// directory (256-way, so even millions of records keep directory
// listings small) holding one JSON file per record.
func (s *Store) pathFor(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".json")
}

// scan indexes the records already on disk.
func (s *Store) scan() error {
	fanouts, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	for _, fan := range fanouts {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(s.dir, fan.Name()))
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", filepath.Join(s.dir, fan.Name()), err)
		}
		for _, ent := range ents {
			name := ent.Name()
			if filepath.Ext(name) != ".json" {
				continue
			}
			info, err := ent.Info()
			if err != nil {
				continue // raced with another process's eviction
			}
			hash := name[:len(name)-len(".json")]
			s.recs[hash] = &recMeta{hash: hash, size: info.Size(), access: info.ModTime(), stamp: info.ModTime()}
			s.bytes += info.Size()
		}
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Bytes returns the total indexed record bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Get returns the persisted result for k, if the store has one, and
// stamps the record's in-memory access time (the LRU clock eviction
// runs on). The first Get of a record in this process reads and decodes
// its file and keeps the decoded result in the index; later Gets answer
// from that copy with one map lookup. The record file's mtime is
// refreshed only when this process's stamp of it is touchInterval old,
// so repeat hits touch no file at all. A record another process evicted
// therefore still answers here if this process decoded it before — the
// same bytes the file held, since simulations are deterministic — while
// one this process never read reads as a plain miss. A record whose file
// does not decode is quarantined (renamed to *.corrupt, counted in
// expq_store_corrupt_total) and reads as a miss, so its key simulates
// again; a record of another schema version, or one holding another
// key, is an error.
func (s *Store) Get(k exp.Key) (exp.CachedResult, bool, error) {
	t := now()
	s.mu.Lock()
	if m, ok := s.decoded[k]; ok {
		m.access = t
		res := *m.res
		touch := m.due(t)
		s.mu.Unlock()
		if touch {
			s.touch(m.hash, t)
		}
		s.hits.Inc()
		return res, true, nil
	}
	drops := s.drops
	s.mu.Unlock()

	hash := HashKey(k)
	path := s.pathFor(hash)
	rec, size, err := readRecord(path)
	switch {
	case errors.Is(err, errCorrupt):
		s.quarantine(hash, path)
		s.misses.Inc()
		return exp.CachedResult{}, false, nil
	case os.IsNotExist(err):
		s.mu.Lock()
		s.dropLocked(hash)
		s.mu.Unlock()
		s.misses.Inc()
		return exp.CachedResult{}, false, nil
	case err != nil:
		return exp.CachedResult{}, false, err
	}
	if rec.Machine != k.Machine || rec.Workload != k.Workload {
		return exp.CachedResult{}, false, fmt.Errorf("store: %s holds (%s | %s), wanted (%s | %s) — hash collision or corrupted record",
			path, rec.Machine, rec.Workload, k.Machine, k.Workload)
	}
	s.mu.Lock()
	touch := s.indexLocked(hash, size, t, &rec.CachedResult, drops).due(t)
	s.mu.Unlock()
	if touch {
		s.touch(hash, t)
	}
	s.hits.Inc()
	return rec.CachedResult, true, nil
}

// touch sets a record file's mtime to t. It is best effort: a failed
// touch only ages the record early after a restart.
func (s *Store) touch(hash string, t time.Time) {
	os.Chtimes(s.pathFor(hash), t, t)
}

// errCorrupt marks a record file that is not a decodable record.
var errCorrupt = errors.New("store: damaged record")

// readRecord reads and decodes one record file.
func readRecord(path string) (record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, 0, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return record{}, 0, fmt.Errorf("%w: decoding %s: %v", errCorrupt, path, err)
	}
	if rec.Version != RecordVersion {
		return record{}, 0, fmt.Errorf("store: %s is record schema v%d, this build reads v%d", path, rec.Version, RecordVersion)
	}
	return rec, int64(len(data)), nil
}

// quarantine moves a record file that does not decode aside, to
// <path>.corrupt (kept for inspection; scan ignores it), and drops it
// from the index, so its key misses and simulates again. It returns
// the drop count its own drop left (see Store.drops).
func (s *Store) quarantine(hash, path string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(hash)
	if os.Rename(path, path+".corrupt") == nil { // fails if another reader got there first
		s.corrupt.Inc()
	}
	return s.drops
}

// indexLocked records one record this process just read or wrote,
// keeping res as its decoded copy unless an entry was dropped since the
// caller read drops (see Store.drops), and returns its entry. An entry
// already indexed keeps its file stamp; the caller holds mu.
func (s *Store) indexLocked(hash string, size int64, access time.Time, res *exp.CachedResult, drops uint64) *recMeta {
	m, ok := s.recs[hash]
	if ok {
		s.bytes -= m.size
		s.forgetLocked(m)
	} else {
		m = &recMeta{hash: hash}
		s.recs[hash] = m
	}
	if s.drops != drops {
		res = nil
	}
	m.size, m.access, m.res = size, access, res
	if res != nil {
		s.decoded[exp.Key{Machine: res.Machine, Workload: res.Workload}] = m
	}
	s.bytes += size
	return m
}

// forgetLocked removes m's decoded copy from the key index; the caller
// holds mu.
func (s *Store) forgetLocked(m *recMeta) {
	if m.res != nil {
		delete(s.decoded, exp.Key{Machine: m.res.Machine, Workload: m.res.Workload})
	}
}

// resultBytes is the comparable identity of a stored result: its JSON
// encoding. pipeline.Result round-trips JSON exactly (the property the
// whole distributed design rests on), so byte equality here is result
// equality. ElapsedNS is deliberately excluded — it describes the host
// that ran the simulation, not the simulation.
func resultBytes(r exp.CachedResult) []byte {
	b, err := json.Marshal(r.R)
	if err != nil {
		panic(fmt.Sprintf("store: encoding result for (%s | %s): %v", r.Machine, r.Workload, err))
	}
	return b
}

// Put persists one completed simulation. If the key already holds a
// record with the identical result, the first writer wins and Put is a
// no-op (the existing record, including its recorded elapsed time, is
// kept). If the existing result differs byte-for-byte, Put returns a
// *ConflictError — deterministic simulations cannot disagree, so the
// store refuses to pick a side. After a new record lands, eviction
// brings the store back under its byte bound.
func (s *Store) Put(r exp.CachedResult) error {
	hash := HashKey(exp.Key{Machine: r.Machine, Workload: r.Workload})
	path := s.pathFor(hash)
	s.mu.Lock()
	drops := s.drops
	s.mu.Unlock()
	existing, size, err := readRecord(path)
	switch {
	case err == nil:
		if string(resultBytes(existing.CachedResult)) != string(resultBytes(r)) {
			return &ConflictError{Path: path, Machine: r.Machine, Workload: r.Workload}
		}
		s.mu.Lock()
		s.indexLocked(hash, size, now(), &existing.CachedResult, drops)
		s.mu.Unlock()
		return nil
	case errors.Is(err, errCorrupt):
		drops = s.quarantine(hash, path)
	case !os.IsNotExist(err):
		return err
	}

	data, err := json.MarshalIndent(record{Version: RecordVersion, CachedResult: r}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding record for %s: %w", path, err)
	}
	data = append(data, '\n')
	if err := writeAtomic(path, data); err != nil {
		return err
	}
	s.puts.Inc()
	t := now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.indexLocked(hash, int64(len(data)), t, &r, drops).stamp = t
	s.evictLocked()
	return nil
}

// writeAtomic writes data to path via a unique fsynced temp file and a
// rename, creating the fanout directory on the way: concurrent writers
// never see each other's work in progress, and a crash leaves either no
// record or a complete one. Every error names the destination path.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating record directory for %s: %w", path, err)
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp record for %s: %w", path, err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		// CreateTemp makes the file 0600; records are shareable data.
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing record %s: %w", path, err)
	}
	return nil
}

// evictLocked drops the least-recently-accessed records, index entry
// and file, until the store is back under its byte bound; the caller
// holds mu, so no Get can read a file between its eviction and its
// removal and keep a decoded copy of it. The newest record always
// survives, so a single result larger than the bound still persists.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.recs) > 1 {
		var oldest string
		var oldestAt time.Time
		for h, m := range s.recs {
			if oldest == "" || m.access.Before(oldestAt) {
				oldest, oldestAt = h, m.access
			}
		}
		s.dropLocked(oldest)
		os.Remove(s.pathFor(oldest)) // ENOENT means another process got there first
		s.evictions.Inc()
	}
}

// dropLocked forgets an index entry and its decoded copy (evicted, gone
// from disk, or quarantined); the caller holds mu.
func (s *Store) dropLocked(hash string) {
	if m, ok := s.recs[hash]; ok {
		s.bytes -= m.size
		delete(s.recs, hash)
		s.forgetLocked(m)
		s.drops++
	}
}
