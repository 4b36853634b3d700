//go:build race

package wire

// raceEnabled reports whether the race detector is active: under it
// sync.Pool drops a share of what is put back, so allocation budgets that
// assume a warm pool do not hold.
const raceEnabled = true

// Race builds poison what the pools take back, so that code still holding
// a recycled body, a recycled params map or a released message reads
// values no frame carries instead of a plausible later one.

// poisonByte fills every body Recycle pools.
const poisonByte = 0xDB

// releasedKernel and releasedStreamID mark a released message.
const (
	releasedKernel   = "wire: released"
	releasedStreamID = ^uint64(0)
)

// poisonBody fills b with poisonByte.
func poisonBody(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// scrubReleased fills a message on its way into the pool with the
// released sentinel.
func scrubReleased(m *Message) {
	*m = Message{Header: Header{Kernel: releasedKernel, StreamID: releasedStreamID}}
}

// scrubTaken zeroes a message on its way out of the pool.
func scrubTaken(m *Message) { *m = Message{} }

// recycledParam is the one entry a recycled params map holds until the
// pool hands it out again.
const (
	recycledParam      = "wire: recycled"
	recycledParamValue = poisonByte
)

// scrubRecycledParams empties a params map on its way into the pool and
// leaves the recycled sentinel in it.
func scrubRecycledParams(m map[string]float64) {
	clear(m)
	m[recycledParam] = recycledParamValue
}

// scrubTakenParams empties a params map on its way out of the pool.
func scrubTakenParams(m map[string]float64) { clear(m) }
