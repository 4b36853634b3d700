//go:build race

package wire

import (
	"reflect"
	"testing"
)

// TestRaceBuildPoisonsPools: in a race build what the pools take back is
// poisoned, so a stale reference reads values no frame carries, and a
// message or params map taken from the pool is zero again.
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

	params := map[string]float64{"op": 7, "work": 1}
	RecycleParams(params)
	if want := map[string]float64{recycledParam: recycledParamValue}; !reflect.DeepEqual(params, want) {
		t.Errorf("recycled params map reads %v, want only the sentinel %v", params, want)
	}
	if got := newParams(); len(got) != 0 {
		t.Errorf("params map from the pool = %v, want it empty", got)
	}
}
