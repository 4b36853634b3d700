package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	msg := &Message{
		Type: MsgInvoke,
		Header: Header{
			Kernel: "matmul",
			Params: map[string]float64{"n": 500, "seed": 1},
		},
		Body: []byte("payload-bytes"),
	}
	var buf bytes.Buffer
	if err := Write(&buf, msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Type != MsgInvoke {
		t.Errorf("Type = %v, want MsgInvoke", got.Type)
	}
	if got.Header.Kernel != "matmul" || got.Header.Params["n"] != 500 {
		t.Errorf("Header = %+v", got.Header)
	}
	if !bytes.Equal(got.Body, msg.Body) {
		t.Errorf("Body = %q", got.Body)
	}
}

func TestRoundTripEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: MsgList}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Type != MsgList || len(got.Body) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(kernel string, n float64, body []byte) bool {
		msg := &Message{
			Type:   MsgResult,
			Header: Header{Kernel: kernel, Values: map[string]float64{"n": n}},
			Body:   body,
		}
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Header.Kernel == kernel &&
			got.Header.Values["n"] == n &&
			bytes.Equal(got.Body, body)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	data := []byte("NOPE\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00")
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: MsgList}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	frame := buf.Bytes()
	frame[4] = 99
	if _, err := Read(bytes.NewReader(frame)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestReadRejectsOversizeHeader(t *testing.T) {
	frame := append([]byte{}, 'K', 'A', 'A', 'S', Version, byte(MsgList))
	frame = append(frame, 0xFF, 0xFF, 0xFF, 0xFF) // huge header length
	if _, err := Read(bytes.NewReader(frame)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestReadEOFOnEmptyStream(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestReadTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: MsgResult, Body: []byte("1234567890")}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	truncated := buf.Bytes()[:buf.Len()-5]
	if _, err := Read(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated frame succeeded")
	}
}

func TestWriteRejectsOversizeBody(t *testing.T) {
	msg := &Message{Type: MsgResult, Body: make([]byte, MaxBodyLen+1)}
	if err := Write(io.Discard, msg); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestFrameSizeMatchesWrite(t *testing.T) {
	msg := &Message{
		Type:   MsgInvoke,
		Header: Header{Kernel: "ga", Params: map[string]float64{"n": 32}},
		Body:   make([]byte, 1000),
	}
	want, err := FrameSize(msg)
	if err != nil {
		t.Fatalf("FrameSize: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if int64(buf.Len()) != want {
		t.Errorf("FrameSize = %d, actual frame = %d", want, buf.Len())
	}
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := Write(&buf, &Message{Type: MsgStats}); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := Read(&buf); err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
	}
	if _, err := Read(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("after stream end err = %v, want EOF", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, tt := range []struct {
		mt   MsgType
		want string
	}{
		{MsgRegister, "register"}, {MsgRegistered, "registered"},
		{MsgInvoke, "invoke"}, {MsgResult, "result"}, {MsgError, "error"},
		{MsgList, "list"}, {MsgListResult, "list-result"},
		{MsgStats, "stats"}, {MsgStatsResult, "stats-result"},
		{MsgHello, "hello"}, {MsgHelloAck, "hello-ack"}, {MsgCancel, "cancel"},
		{MsgControl, "control"}, {MsgControlAck, "control-ack"},
		{MsgLease, "lease"}, {MsgLeaseAck, "lease-ack"}, {MsgLeaseRevoke, "lease-revoke"},
		{MsgType(200), "msgtype(200)"},
	} {
		if got := tt.mt.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// TestRetryable: exactly the codes of a rejection made before the kernel
// ran are retryable; an unknown or missing code is not.
func TestRetryable(t *testing.T) {
	for code, want := range map[string]bool{
		CodeOverloaded: true, CodeUnavailable: true, CodeLeaseRevoked: true,
		CodeDeadlineExceeded: false, CodeUnknownKernel: false, CodeInternal: false,
		"": false, "FUTURE_CODE": false,
	} {
		if got := Retryable(code); got != want {
			t.Errorf("Retryable(%q) = %v, want %v", code, got, want)
		}
	}
}

func TestMuxFrameRoundTrip(t *testing.T) {
	msg := &Message{
		Version: VersionMux,
		Type:    MsgInvoke,
		Header: Header{
			Kernel:   "matmul",
			Params:   map[string]float64{"n": 64},
			StreamID: 7,
		},
		Body: []byte("mux-payload"),
	}
	var buf bytes.Buffer
	if err := Write(&buf, msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if b := buf.Bytes(); b[4] != VersionMux {
		t.Errorf("version byte = %d, want %d", b[4], VersionMux)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Version != VersionMux {
		t.Errorf("Version = %d, want %d", got.Version, VersionMux)
	}
	if got.Header.StreamID != 7 {
		t.Errorf("StreamID = %d, want 7", got.Header.StreamID)
	}
	if !bytes.Equal(got.Body, msg.Body) {
		t.Errorf("Body = %q", got.Body)
	}
}

func TestHelloHandshakeFrames(t *testing.T) {
	var buf bytes.Buffer
	// Hello is sent as a version-1 frame so legacy peers can parse it.
	if err := Write(&buf, &Message{Type: MsgHello, Header: Header{MuxVersion: VersionMux}}); err != nil {
		t.Fatalf("Write hello: %v", err)
	}
	if b := buf.Bytes(); b[4] != Version {
		t.Errorf("hello version byte = %d, want %d (legacy-parseable)", b[4], Version)
	}
	hello, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read hello: %v", err)
	}
	if hello.Type != MsgHello || hello.Header.MuxVersion != VersionMux {
		t.Errorf("hello = %+v", hello)
	}
	if err := Write(&buf, &Message{Type: MsgHelloAck, Header: Header{MuxVersion: VersionMux, MaxStreams: 64}}); err != nil {
		t.Fatalf("Write ack: %v", err)
	}
	ack, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read ack: %v", err)
	}
	if ack.Type != MsgHelloAck || ack.Header.MuxVersion != VersionMux || ack.Header.MaxStreams != 64 {
		t.Errorf("ack = %+v", ack)
	}
}

func TestCancelFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := &Message{Version: VersionMux, Type: MsgCancel, Header: Header{StreamID: 42}}
	if err := Write(&buf, msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Type != MsgCancel || got.Header.StreamID != 42 {
		t.Errorf("got %+v", got)
	}
}

func TestLeaseFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	// Request, grant, a leased invoke (payload by handle, empty body),
	// the result pointing back into the window, and a revocation.
	frames := []*Message{
		{Version: VersionMux, Type: MsgLease, Header: Header{StreamID: 9, LeaseBytes: 1 << 20}},
		{Version: VersionMux, Type: MsgLeaseAck, Header: Header{StreamID: 9, LeaseID: 3, LeaseBytes: 1 << 20}},
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel: "mci", StreamID: 11, LeaseID: 3, LeaseLen: 4096,
		}},
		{Version: VersionMux, Type: MsgResult, Header: Header{
			StreamID: 11, LeaseID: 3, LeaseResultLen: 128,
		}},
		{Version: VersionMux, Type: MsgLeaseRevoke, Header: Header{LeaseID: 3}},
	}
	for _, msg := range frames {
		if err := Write(&buf, msg); err != nil {
			t.Fatalf("Write %v: %v", msg.Type, err)
		}
	}
	for _, want := range frames {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read %v: %v", want.Type, err)
		}
		if got.Type != want.Type ||
			got.Header.StreamID != want.Header.StreamID ||
			got.Header.LeaseID != want.Header.LeaseID ||
			got.Header.LeaseBytes != want.Header.LeaseBytes ||
			got.Header.LeaseLen != want.Header.LeaseLen ||
			got.Header.LeaseResultLen != want.Header.LeaseResultLen {
			t.Errorf("%v: got %+v, want %+v", want.Type, got.Header, want.Header)
		}
		if len(got.Body) != 0 {
			t.Errorf("%v: leased frame carried %d body bytes, want 0", want.Type, len(got.Body))
		}
	}
}

// TestLeaseFieldsIgnoredByLegacyDecode pins the compatibility contract:
// a frame carrying the new lease header fields decodes cleanly, and a
// header without them leaves the fields zero, so legacy peers on the
// same server never see or need them.
func TestLeaseFieldsIgnoredByLegacyDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: MsgInvoke, Header: Header{Kernel: "mci"}, Body: []byte("x")}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Header.LeaseID != 0 || got.Header.LeaseLen != 0 || got.Header.LeaseResultLen != 0 {
		t.Errorf("legacy frame decoded with lease fields set: %+v", got.Header)
	}
}

func TestWriteRejectsFutureVersion(t *testing.T) {
	msg := &Message{Version: MaxVersion + 1, Type: MsgList}
	if err := Write(io.Discard, msg); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestAppendMatchesWrite(t *testing.T) {
	msg := &Message{
		Version: VersionMux,
		Type:    MsgResult,
		Header:  Header{StreamID: 3, Values: map[string]float64{"x": 1}},
		Body:    []byte("abc"),
	}
	var buf bytes.Buffer
	if err := Write(&buf, msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	appended, err := Append(nil, msg)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), appended) {
		t.Error("Append output differs from Write output")
	}
}

// TestReadReusedAcrossMessages guards the pooled header buffer: decoded
// headers must not alias pool memory that a later Read overwrites.
func TestReadReusedAcrossMessages(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: MsgInvoke, Header: Header{Kernel: "first-kernel-name"}}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := Write(&buf, &Message{Type: MsgInvoke, Header: Header{Kernel: "second-kernel-name"}}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	first, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if first.Header.Kernel != "first-kernel-name" {
		t.Errorf("first header mutated by second Read: %q", first.Header.Kernel)
	}
}

// TestReleasedMessageReusedClean guards the message pool: a message Read
// fills after an earlier one was released holds only what its own frame
// carries, never a field of the earlier stream.
func TestReleasedMessageReusedClean(t *testing.T) {
	oneP(t)
	var buf bytes.Buffer
	invoke := &Message{Version: VersionMux, Type: MsgInvoke, Header: Header{
		Kernel: "probe", Tenant: "tenant-a", Params: map[string]float64{"op": 7},
		DeadlineNanos: 1700000000000000000, StreamID: 9, LeaseID: 3, LeaseLen: 64,
	}, Body: []byte("in-band body")}
	hello := &Message{Type: MsgHello, Header: Header{MuxVersion: VersionMux}}
	for _, m := range []*Message{invoke, hello} {
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	first, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read invoke: %v", err)
	}
	Release(first)
	second, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read hello: %v", err)
	}
	if !raceEnabled && second != first {
		t.Fatal("Read did not take the released message from the pool")
	}
	want := Message{Version: Version, Type: MsgHello, Header: Header{MuxVersion: VersionMux}}
	if !reflect.DeepEqual(*second, want) {
		t.Errorf("hello read into a released message = %+v, want %+v", *second, want)
	}
}

// TestRecycledParamsReusedClean guards the params pool: a map Read decodes
// into after an earlier one was recycled holds only its own frame's keys,
// and a frame without params decodes to no map at all.
func TestRecycledParamsReusedClean(t *testing.T) {
	oneP(t)
	var buf bytes.Buffer
	for _, m := range []*Message{
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel: "probe", Params: map[string]float64{"op": 7, "work": 1, "secret": 3}, StreamID: 1}},
		{Version: VersionMux, Type: MsgInvoke, Header: Header{Kernel: "probe", StreamID: 2}},
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel: "probe", Params: map[string]float64{"n": 5}, StreamID: 3}},
	} {
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	read := func() *Message {
		t.Helper()
		m, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		return m
	}
	first := read()
	recycled := first.Header.Params
	RecycleParams(recycled)
	Release(first)

	if none := read(); none.Header.Params != nil {
		t.Errorf("frame without params decodes to Params %v, want nil", none.Header.Params)
	}
	other := read()
	if want := map[string]float64{"n": 5}; !reflect.DeepEqual(other.Header.Params, want) {
		t.Errorf("frame with other keys decodes to Params %v, want %v", other.Header.Params, want)
	}
	if !raceEnabled && reflect.ValueOf(other.Header.Params).UnsafePointer() != reflect.ValueOf(recycled).UnsafePointer() {
		t.Error("Read did not decode into the recycled params map")
	}
}

func BenchmarkWriteRead(b *testing.B) {
	msg := &Message{
		Type: MsgInvoke,
		Header: Header{
			Kernel:   "matmul",
			Params:   map[string]float64{"n": 500},
			StreamID: 9,
		},
		Body: make([]byte, 512),
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
