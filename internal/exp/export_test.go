package exp

import "testing"

// CaptureArenas exports captureArenas to the external tests: it collects
// the private arenas Run builds for the rest of the test, in creation
// order.
func CaptureArenas(t *testing.T) func() []*Arena { return captureArenas(t) }
