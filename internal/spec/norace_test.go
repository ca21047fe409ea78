//go:build !race

package spec_test

const raceEnabled = false
