//go:build race

package wire

// raceEnabled reports whether the race detector is active: under it
// sync.Pool drops a share of what is put back, so allocation budgets that
// assume a warm pool do not hold.
const raceEnabled = true
