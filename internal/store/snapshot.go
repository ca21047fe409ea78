package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"icfp/internal/exp"
)

// SnapshotVersion identifies the legacy single-file cache snapshot
// schema (the old `-cache-file` format) that ImportSnapshot reads.
// Version 2 keys entries by canonical machine/workload specs; the
// unversioned pre-spec schema keyed entries by a machine label and an
// opaque configuration fingerprint, which cannot be re-keyed.
const SnapshotVersion = 2

// SnapshotVersionError reports a cache snapshot written under a
// different schema version than this build understands.
type SnapshotVersionError struct {
	Got, Want int
}

func (e *SnapshotVersionError) Error() string {
	if e.Got == 0 {
		return fmt.Sprintf("store: cache snapshot uses the unversioned fingerprint-keyed schema; this build keys on canonical specs (v%d)", e.Want)
	}
	return fmt.Sprintf("store: cache snapshot schema v%d, this build reads v%d", e.Got, e.Want)
}

// snapshotFile is the on-disk layout of a cache snapshot.
type snapshotFile struct {
	Version int                `json:"version"`
	Entries []exp.CachedResult `json:"entries"`
}

// ReadSnapshot parses a cache snapshot. A file from a different schema
// version (including the unversioned pre-spec format) returns a
// SnapshotVersionError; a damaged or truncated one a decode error.
func ReadSnapshot(r io.Reader) ([]exp.CachedResult, error) {
	var f snapshotFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("store: decoding cache snapshot: %w", err)
	}
	if f.Version != SnapshotVersion {
		return nil, &SnapshotVersionError{Got: f.Version, Want: SnapshotVersion}
	}
	return f.Entries, nil
}

// ImportSnapshot is the one-shot migration path from a legacy
// `-cache-file` snapshot (expq -import-cache): it reads a schema-v2
// snapshot and persists every entry, returning how many records were
// newly written (entries already in the store are first-writer-wins
// no-ops). A snapshot from a different schema — including the legacy
// unversioned fingerprint-keyed format, whose entries cannot be
// re-keyed — is an error, not a silent partial import.
func (s *Store) ImportSnapshot(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rs, err := ReadSnapshot(f)
	if err != nil {
		return 0, fmt.Errorf("store: importing %s: %w", path, err)
	}
	before := s.Len()
	for _, r := range rs {
		if err := s.Put(r); err != nil {
			return s.Len() - before, fmt.Errorf("store: importing %s: %w", path, err)
		}
	}
	return s.Len() - before, nil
}
