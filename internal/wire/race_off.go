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
