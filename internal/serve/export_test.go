package serve

// MaxSuiteBytes exports the document bound to the external tests.
const MaxSuiteBytes = maxSuiteBytes

// The prepared-suite memo's bounds, for the external tests.
const (
	MaxPrepared      = maxPrepared
	MaxPreparedBytes = maxPreparedBytes
)

// Prepared returns how many documents the server's prepared-suite memo
// holds and their total size.
func (s *Server) Prepared() (docs, bytes int) {
	s.prepared.mu.Lock()
	defer s.prepared.mu.Unlock()
	return len(s.prepared.m), s.prepared.bytes
}
