//go:build !race

package wire

// raceEnabled reports whether the race detector is active.
const raceEnabled = false

// poisonBody leaves b as it is outside race builds.
func poisonBody([]byte) {}

// scrubReleased zeroes a message on its way into the pool.
func scrubReleased(m *Message) { *m = Message{} }

// scrubTaken leaves a message on its way out of the pool as it is:
// scrubReleased already zeroed it.
func scrubTaken(*Message) {}

// scrubRecycledParams empties a params map on its way into the pool.
func scrubRecycledParams(m map[string]float64) { clear(m) }

// scrubTakenParams leaves a params map on its way out of the pool as it
// is: scrubRecycledParams already emptied it.
func scrubTakenParams(map[string]float64) {}
