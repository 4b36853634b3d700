//go:build race

package cplane_test

// raceEnabled reports whether the race detector is active: under it
// sync.Pool drops a share of what is put back, so allocation counts that
// assume a warm pool do not hold.
const raceEnabled = true
