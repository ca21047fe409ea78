package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"icfp/internal/pipeline"
)

// SnapshotVersion identifies the cache-file schema this build reads and
// writes. Version 2 keys entries by canonical machine/workload specs
// (spec.Machine.Canonical, spec.Workload.Canonical); the unversioned
// pre-spec schema keyed entries by a machine label and an opaque
// configuration fingerprint, which cannot be re-keyed — loading one yields a SnapshotVersionError so callers can
// warn and regenerate instead of failing or silently mixing identities.
const SnapshotVersion = 2

// SnapshotVersionError reports a cache file written under a different
// schema version than this build understands.
type SnapshotVersionError struct {
	Got, Want int
}

func (e *SnapshotVersionError) Error() string {
	if e.Got == 0 {
		return fmt.Sprintf("exp: cache snapshot uses the unversioned fingerprint-keyed schema; this build keys on canonical specs (v%d)", e.Want)
	}
	return fmt.Sprintf("exp: cache snapshot schema v%d, this build reads v%d", e.Got, e.Want)
}

// CachedResult is one completed simulation in a persisted cache file:
// the full memoization key (canonical machine and workload specs) plus
// its result. Simulations are deterministic pure functions of the key,
// which is what makes reloading them in a later process sound.
//
// ElapsedNS records the simulation's wall time. Unlike the result it is
// not deterministic — it describes the machine that ran the simulation,
// not the simulation — and exists only to seed dispatch-time cost models
// (internal/dist): zero means "unmeasured" and is always safe. The field
// is additive and optional, so schema v2 readers old and new interchange
// freely (see the versioning rules in docs/ARCHITECTURE.md).
type CachedResult struct {
	Machine   string          `json:"machine"`
	Workload  string          `json:"workload"`
	R         pipeline.Result `json:"result"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`
}

// cacheFile is the on-disk layout of a persisted cache.
type cacheFile struct {
	Version int            `json:"version"`
	Entries []CachedResult `json:"entries"`
}

// Snapshot returns every completed cache entry in deterministic
// (machine, workload) order. In-flight entries are skipped: a snapshot
// taken concurrently with a run captures only finished work.
func (c *Cache) Snapshot() []CachedResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedResult, 0, len(c.entries))
	for k, e := range c.entries {
		select {
		case <-e.done:
			out = append(out, CachedResult{Machine: k.Machine, Workload: k.Workload, R: e.res, ElapsedNS: int64(e.elapsed)})
		default:
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Workload < b.Workload
	})
	return out
}

// AddResults pre-fills the cache with completed results (typically loaded
// from an earlier invocation's snapshot). Keys already present are left
// untouched. Added entries count as cache hits, not simulations.
func (c *Cache) AddResults(rs []CachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rs {
		k := Key{Machine: r.Machine, Workload: r.Workload}
		if _, ok := c.entries[k]; ok {
			continue
		}
		e := &entry{done: make(chan struct{}), res: r.R, elapsed: time.Duration(r.ElapsedNS)}
		close(e.done)
		c.entries[k] = e
	}
}

// WriteSnapshot writes the cache's completed entries as indented JSON.
func (c *Cache) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cacheFile{Version: SnapshotVersion, Entries: c.Snapshot()})
}

// ReadSnapshot parses a snapshot previously written by WriteSnapshot. A
// file from a different schema version (including the unversioned
// pre-spec format) returns a SnapshotVersionError.
func ReadSnapshot(r io.Reader) ([]CachedResult, error) {
	var f cacheFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("exp: decoding cache snapshot: %w", err)
	}
	if f.Version != SnapshotVersion {
		return nil, &SnapshotVersionError{Got: f.Version, Want: SnapshotVersion}
	}
	return f.Entries, nil
}

// LoadCacheFile pre-fills the cache from the named snapshot file. A
// missing file is not an error — it is the normal first-invocation
// state. A version mismatch surfaces as a wrapped SnapshotVersionError;
// callers that treat old snapshots as regenerate-rather-than-fail should
// errors.As for it.
func LoadCacheFile(c *Cache, path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	rs, err := ReadSnapshot(f)
	if err != nil {
		return fmt.Errorf("exp: cache file %s: %w", path, err)
	}
	c.AddResults(rs)
	return nil
}

// SaveCacheFile atomically replaces the named snapshot file with the
// cache's current completed entries. The temp file gets a unique name in
// the target directory — concurrent savers (real, now that distributed
// runs can share a cache directory) never clobber each other's work in
// progress — and is fsynced before the rename, so a crash leaves either
// the old snapshot or the complete new one, never a torn file.
// Every error — temp creation, write, fsync, rename — names the
// destination path, so "disk full" or "read-only directory" failures
// point at the snapshot that was being saved, not an anonymous temp
// file. (os.Rename's LinkError names both ends itself and passes
// through unwrapped.)
func SaveCacheFile(c *Cache, path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("exp: saving cache file %s: %w", path, err)
	}
	tmp := f.Name()
	err = c.WriteSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		// CreateTemp makes the file 0600; snapshots are shareable data.
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
		return fmt.Errorf("exp: saving cache file %s: %w", path, err)
	}
	return nil
}
