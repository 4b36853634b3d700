package wire

import (
	"bytes"
	"encoding/binary"
	"maps"
	"reflect"
	"testing"
)

// seedFrames returns encoded frames covering the message types exercised
// by wire_test.go, used as the fuzz corpus.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	msgs := []*Message{
		{Type: MsgInvoke, Header: Header{
			Kernel: "matmul",
			Params: map[string]float64{"n": 500, "seed": 1},
		}, Body: []byte("payload-bytes")},
		{Type: MsgList},
		{Type: MsgResult, Header: Header{
			Kernel: "matmul",
			Values: map[string]float64{"checksum": 42},
		}, Body: make([]byte, 100)},
		{Type: MsgError, Header: Header{Error: "boom"}},
		{Type: MsgInvoke, Header: Header{
			Kernel:        "bitmap",
			DeadlineNanos: 1700000000000000000,
		}},
		{Type: MsgStatsResult, Header: Header{Stats: []byte(`{"Kernels":1}`)}},
		// Multiplexed (version 2) frames: a StreamID-carrying invoke, the
		// upgrade handshake, and a per-stream cancel.
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel:   "mci",
			Params:   map[string]float64{"n": 1000},
			StreamID: 7,
		}, Body: []byte("mux-payload")},
		{Type: MsgHello, Header: Header{MuxVersion: VersionMux}},
		{Version: VersionMux, Type: MsgHelloAck, Header: Header{MuxVersion: VersionMux, MaxStreams: 64}},
		{Version: VersionMux, Type: MsgCancel, Header: Header{StreamID: 42}},
		// Out-of-band data plane (version 2): lease negotiation, grant,
		// revocation, and a leased invoke whose payload travels by handle
		// (empty body, LeaseID + LeaseLen in the header).
		{Version: VersionMux, Type: MsgLease, Header: Header{StreamID: 9, LeaseBytes: 1 << 20}},
		{Version: VersionMux, Type: MsgLeaseAck, Header: Header{StreamID: 9, LeaseID: 3, LeaseBytes: 1 << 20}},
		{Version: VersionMux, Type: MsgLeaseAck, Header: Header{StreamID: 9, Error: "lease denied: no arena"}},
		{Version: VersionMux, Type: MsgLeaseRevoke, Header: Header{LeaseID: 3}},
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel:   "mci",
			Params:   map[string]float64{"n": 1000},
			StreamID: 11,
			LeaseID:  3,
			LeaseLen: 4096,
		}},
		{Version: VersionMux, Type: MsgResult, Header: Header{
			StreamID:       11,
			LeaseID:        3,
			LeaseResultLen: 128,
		}},
		// Stale/duplicate lease shapes: an invoke against a lease the
		// server never granted, and a double grant of the same window.
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel: "mci", StreamID: 12, LeaseID: 999999, LeaseLen: 8,
		}},
		{Version: VersionMux, Type: MsgLeaseAck, Header: Header{StreamID: 13, LeaseID: 3, LeaseBytes: 1 << 20}},
	}
	frames := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("seed Write: %v", err)
		}
		frames = append(frames, buf.Bytes())
	}
	return frames
}

// FuzzRead throws arbitrary byte streams at the frame decoder: it must
// never panic, and every frame it accepts, up to the first it rejects,
// must re-encode and decode to the same message. Each decoded body and
// params map is then recycled and the stream decoded again, so the second
// pass reads into buffers and maps holding the first pass's contents: it
// must decode the same frames and stop at the same error.
func FuzzRead(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	// Hand-built hostile frames: truncations, oversized sections, bad
	// magic, and future protocol versions.
	f.Add([]byte("KAAS"))
	f.Add([]byte("NOPE\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{'K', 'A', 'A', 'S', 99, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'K', 'A', 'A', 'S', Version, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	huge := []byte{'K', 'A', 'A', 'S', Version, 1, 0, 0, 0, 2, '{', '}'}
	huge = binary.BigEndian.AppendUint32(huge, 0xFFFFFFF0) // body length lie
	f.Add(huge)
	// Truncated lease frames: every prefix boundary of an encoded
	// MsgLease/MsgLeaseAck must fail cleanly, never panic or over-read.
	var leaseBuf bytes.Buffer
	if err := Write(&leaseBuf, &Message{Version: VersionMux, Type: MsgLease,
		Header: Header{StreamID: 9, LeaseBytes: 1 << 20}}); err != nil {
		f.Fatalf("seed Write: %v", err)
	}
	leaseFrame := leaseBuf.Bytes()
	for _, cut := range []int{4, 6, 10, len(leaseFrame) / 2, len(leaseFrame) - 1} {
		if cut < len(leaseFrame) {
			f.Add(append([]byte(nil), leaseFrame[:cut]...))
		}
	}

	// A shared socket's stream: a header-only frame, a frame whose body
	// leaves by the vectored path, and another header-only frame.
	var stream []byte
	for _, m := range []*Message{
		{Version: VersionMux, Type: MsgInvoke, Header: Header{Kernel: "probe", StreamID: 1}},
		bodyMessage(256 << 10),
		{Version: VersionMux, Type: MsgCancel, Header: Header{StreamID: 1}},
	} {
		var err error
		if stream, err = Append(stream, m); err != nil {
			f.Fatalf("seed Append: %v", err)
		}
	}
	f.Add(stream)

	f.Fuzz(func(t *testing.T, data []byte) {
		// decode reads every frame of data, recycling each body and params
		// map and releasing each message once it has been checked and
		// copied into the returned list.
		decode := func() ([]*Message, error) {
			var got []*Message
			rd := bytes.NewReader(data)
			for {
				msg, err := Read(rd)
				if err != nil {
					return got, err
				}
				if len(msg.Body) != cap(msg.Body) {
					t.Fatalf("body len %d, cap %d: bytes past the body are reachable", len(msg.Body), cap(msg.Body))
				}
				// Accepted frames must survive a round trip.
				var buf bytes.Buffer
				if err := Write(&buf, msg); err != nil {
					t.Fatalf("re-encode accepted frame: %v", err)
				}
				again, err := Read(&buf)
				if err != nil {
					t.Fatalf("re-decode accepted frame: %v", err)
				}
				if again.Type != msg.Type || !bytes.Equal(again.Body, msg.Body) {
					t.Fatalf("round trip changed frame: %+v != %+v", again, msg)
				}
				Recycle(again.Body)
				RecycleParams(again.Header.Params)
				Release(again)
				kept := *msg
				kept.Body = bytes.Clone(msg.Body)
				kept.Header.Params = maps.Clone(msg.Header.Params)
				Recycle(msg.Body)
				RecycleParams(msg.Header.Params)
				Release(msg)
				got = append(got, &kept)
			}
		}
		first, err1 := decode()
		second, err2 := decode()
		if !reflect.DeepEqual(first, second) || err1.Error() != err2.Error() {
			t.Fatalf("decoding after recycling and releasing differs: %d frames (%v), then %d frames (%v)",
				len(first), err1, len(second), err2)
		}
	})
}

// FuzzRoundTrip encodes arbitrary well-formed messages and checks the
// decoder returns them unchanged.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(MsgInvoke), "matmul", "", float64(500), []byte("data"), int64(0))
	f.Add(uint8(MsgError), "", "cost model: bad n", float64(-1), []byte(nil), int64(0))
	f.Add(uint8(MsgResult), "dtw", "", float64(3.5), make([]byte, 300), int64(1700000000000000000))
	f.Fuzz(func(t *testing.T, typ uint8, kernel, errText string, n float64, body []byte, deadline int64) {
		msg := &Message{
			Type: MsgType(typ),
			Header: Header{
				Kernel:        kernel,
				Error:         errText,
				Params:        map[string]float64{"n": n},
				DeadlineNanos: deadline,
			},
			Body: body,
		}
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			// Unencodable headers (NaN/Inf params don't marshal to
			// JSON) are a caller error, not a protocol bug.
			t.Skip()
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of own Write failed: %v", err)
		}
		if got.Type != msg.Type {
			t.Errorf("Type = %v, want %v", got.Type, msg.Type)
		}
		if !bytes.Equal(got.Body, msg.Body) {
			t.Errorf("Body = %q, want %q", got.Body, msg.Body)
		}
		if got.Header.DeadlineNanos != deadline {
			t.Errorf("DeadlineNanos = %d, want %d", got.Header.DeadlineNanos, deadline)
		}
		if !reflect.DeepEqual(got.Header.Params, msg.Header.Params) {
			t.Errorf("Params = %v, want %v", got.Header.Params, msg.Header.Params)
		}
	})
}
