//go:build race

package spec_test

// raceEnabled reports whether the tests run under the race detector,
// which changes allocation counts.
const raceEnabled = true
