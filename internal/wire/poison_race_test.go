//go:build race

package wire

import (
	"reflect"
	"testing"
)

// TestRaceBuildPoisonsPools: in a race build what the pools take back is
// poisoned, so a stale reference reads values no frame carries, and a
// message taken from the pool is zero again.
func TestRaceBuildPoisonsPools(t *testing.T) {
	body := make([]byte, bodyPoolMin)
	for i := range body {
		body[i] = byte(i)
	}
	Recycle(body)
	for i, b := range body {
		if b != poisonByte {
			t.Fatalf("recycled body byte %d = %#x, want the poison %#x", i, b, poisonByte)
		}
	}

	m := NewMessage()
	m.Type, m.Header, m.Body = MsgInvoke, Header{Kernel: "probe", StreamID: 9}, []byte("body")
	Release(m)
	if m.Header.Kernel != releasedKernel || m.Header.StreamID != releasedStreamID {
		t.Errorf("released message reads kernel %q, stream %d; want the sentinel %q, %d",
			m.Header.Kernel, m.Header.StreamID, releasedKernel, releasedStreamID)
	}
	if got := NewMessage(); !reflect.DeepEqual(*got, Message{}) {
		t.Errorf("NewMessage = %+v, want the zero message", *got)
	}
}
