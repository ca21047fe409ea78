package store

import "time"

// TouchInterval exposes touchInterval to the external tests.
const TouchInterval = touchInterval

// SetClock makes the store read the time from clock until the returned
// restore function runs. Tests that call it must not run in parallel.
func SetClock(clock func() time.Time) (restore func()) {
	old := now
	now = clock
	return func() { now = old }
}
