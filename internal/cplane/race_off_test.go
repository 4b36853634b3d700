//go:build !race

package cplane_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
