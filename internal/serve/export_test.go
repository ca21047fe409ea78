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

// Kept returns the reply the server's prepared suite of doc keeps, nil
// when it keeps none or doc is not in the memo. Two calls return the same
// pointer only while the kept reply has not been replaced.
func (s *Server) Kept(doc []byte) *[]byte {
	s.prepared.mu.Lock()
	defer s.prepared.mu.Unlock()
	if p := s.prepared.m[string(doc)]; p != nil && p.last != nil {
		return &p.last.reply
	}
	return nil
}

// SpareBodies returns how many request-body buffers the server keeps to
// read later bodies into.
func (s *Server) SpareBodies() int {
	s.prepared.mu.Lock()
	defer s.prepared.mu.Unlock()
	return len(s.prepared.spare)
}
