//go:build !race

package wire

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
