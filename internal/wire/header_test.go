package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// headersEqual is reflect.DeepEqual with the float maps compared by bits,
// so that 0 and -0 differ.
func headersEqual(a, b *Header) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for _, m := range [][2]map[string]float64{{a.Params, b.Params}, {a.Values, b.Values}} {
		for k, v := range m[0] {
			if math.Float64bits(v) != math.Float64bits(m[1][k]) {
				return false
			}
		}
	}
	return true
}

// checkEncode holds appendHeader to its contract: the bytes json.Marshal
// produces, after whatever b already held, or an error where it errors;
// and the hand-written encoder declines exactly the headers it must.
func checkEncode(t *testing.T, h *Header) {
	t.Helper()
	want, werr := json.Marshal(h)
	prefix := []byte("prefix")
	got, gerr := appendHeader(prefix, h)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("appendHeader error = %v, json.Marshal error = %v\nheader %+v", gerr, werr, h)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("appendHeader = %s\njson.Marshal = %s", got[len(prefix):], want)
	}
	if _, ok := appendHeaderFields(nil, h); ok != (len(h.Names) == 0 && len(h.Stats) == 0) {
		t.Fatalf("appendHeaderFields ok = %v for an encodable header with %d names, %d stats bytes",
			ok, len(h.Names), len(h.Stats))
	}
}

// checkDecode holds scanHeader to its contract: whatever it accepts,
// json.Unmarshal accepts too and decodes to the same Header.
func checkDecode(t *testing.T, hdr []byte) (accepted bool) {
	t.Helper()
	var fast, ref Header
	if !scanHeader(hdr, &fast) {
		return false
	}
	if err := json.Unmarshal(hdr, &ref); err != nil {
		t.Fatalf("scanHeader accepted %q, json.Unmarshal: %v", hdr, err)
	}
	if !headersEqual(&fast, &ref) {
		t.Fatalf("header %q\nscanHeader     %+v\njson.Unmarshal %+v", hdr, fast, ref)
	}
	return true
}

// TestHeaderCodecCoversEveryField sets each Header field in turn: the
// encoder must write it as json.Marshal does and the scanner must read it
// back, so a field added without teaching the codec fails here instead of
// being dropped on encode or sent down the slow path on decode.
func TestHeaderCodecCoversEveryField(t *testing.T) {
	// The fields the hand-written codec leaves to encoding/json.
	viaJSON := map[string]bool{"Names": true, "Stats": true}
	typ := reflect.TypeOf(Header{})
	for i := 0; i < typ.NumField(); i++ {
		var h Header
		f := reflect.ValueOf(&h).Elem().Field(i)
		switch f.Interface().(type) {
		case string:
			f.SetString("x")
		case bool:
			f.SetBool(true)
		case int, int64:
			f.SetInt(-7)
		case uint8, uint64:
			f.SetUint(7)
		case map[string]float64:
			f.Set(reflect.ValueOf(map[string]float64{"k": 1.5}))
		case []string:
			f.Set(reflect.ValueOf([]string{"a"}))
		case json.RawMessage:
			f.Set(reflect.ValueOf(json.RawMessage(`{"a":1}`)))
		default:
			t.Fatalf("field %s: type %s is new to this test", typ.Field(i).Name, f.Type())
		}
		name := typ.Field(i).Name
		checkEncode(t, &h)
		hdr, err := appendHeader(nil, &h)
		if err != nil {
			t.Fatalf("field %s: %v", name, err)
		}
		if len(hdr) <= len("{}") {
			t.Errorf("field %s was not encoded", name)
		}
		if accepted := checkDecode(t, hdr); accepted == viaJSON[name] {
			t.Errorf("field %s: scanHeader accepted = %v, want %v", name, accepted, !viaJSON[name])
		}
		var got Header
		if err := decodeHeader(hdr, &got); err != nil || !headersEqual(&got, &h) {
			t.Errorf("field %s: decodeHeader(%s) = %+v, %v", name, hdr, got, err)
		}
	}
}

// TestScanHeaderDeclines lists what the scanner must leave to
// encoding/json, each with a neighbour it accepts.
func TestScanHeaderDeclines(t *testing.T) {
	for _, tt := range []struct {
		hdr    string
		accept bool
	}{
		{`{}`, true},
		{`{"kernel":"a\"b\\c\/d\n"}`, true},
		{`{"streamID":18446744073709551615,"durationNanos":-9223372036854775808}`, true},
		{`{"params":{"a":-0,"b":1E+2,"c":0.5e-7},"values":{}}`, true},
		{`{"coldStart":false,"muxVersion":255}`, true},
		{`{"params":{"a":1,"a":2}}`, true}, // last one wins in both decoders
		{``, false},
		{`{`, false},
		{`null`, false},
		{`{} `, false},
		{`{ "kernel":"a"}`, false},
		{`{"kernel":"a",}`, false},
		{`{"kernel":"a"}{}`, false},
		{`{"kernel":"a","kernel":"b"}`, false},
		{`{"Kernel":"a"}`, false},
		{`{"future":1}`, false},
		{`{"kernel":null}`, false},
		{`{"kernel":7}`, false},
		{`{"kernel":"\` + `u0041"}`, false},
		{`{"kernel":"é"}`, false},
		{"{\"kernel\":\"a\tb\"}", false},
		{`{"kernel":"a\'b"}`, false},
		{`{"streamID":18446744073709551616}`, false},
		{`{"streamID":-0}`, false},
		{`{"streamID":1.0}`, false},
		{`{"streamID":01}`, false},
		{`{"durationNanos":9223372036854775808}`, false},
		{`{"durationNanos":1e3}`, false},
		{`{"muxVersion":256}`, false},
		{`{"coldStart":1}`, false},
		{`{"coldStart":truex}`, false},
		{`{"params":{"a":1e999}}`, false},
		{`{"params":{"a":.5}}`, false},
		{`{"params":{"a":1.}}`, false},
		{`{"params":{"a":+1}}`, false},
		{`{"params":{"a":{"b":1}}}`, false},
		{`{"params":{"a":"1"}}`, false},
		{`{"params":[1]}`, false},
		{`{"names":["a"]}`, false},
		{`{"stats":{"Kernels":1}}`, false},
	} {
		if got := checkDecode(t, []byte(tt.hdr)); got != tt.accept {
			t.Errorf("scanHeader(%s) accepted = %v, want %v", tt.hdr, got, tt.accept)
		}
	}
	// A retired key is an unknown key: the scanner declines, and the
	// encoding/json fallback skips it and keeps the rest. wantShmResult
	// stands for the key-based out-of-band path; retryable is a function
	// of the code; kind was never read.
	for _, hdr := range []string{
		`{"kernel":"a","wantShmResult":true,"streamID":7}`,
		`{"kernel":"a","retryable":true,"streamID":7}`,
		`{"kernel":"a","kind":"gpu","streamID":7}`,
	} {
		var got Header
		if checkDecode(t, []byte(hdr)) {
			t.Errorf("scanHeader accepted the retired key in %s", hdr)
		}
		if err := decodeHeader([]byte(hdr), &got); err != nil || !headersEqual(&got, &Header{Kernel: "a", StreamID: 7}) {
			t.Errorf("decodeHeader(%s) = %+v, %v", hdr, got, err)
		}
	}
}

// FuzzHeaderEncode builds arbitrary headers and requires appendHeader to
// agree with json.Marshal byte for byte, or to fail where it fails.
func FuzzHeaderEncode(f *testing.F) {
	f.Add("matmul", "", "boom", "n", "seed", "", 500.0, 1.0, 0.0, uint8(2), int64(0), int64(0), uint64(7), uint8(0))
	f.Add("a\"b\\c", "<t>&", "line\nbreak\x01\x7f", "k ", "\xff\xfe", "é", math.Copysign(0, -1), 5e-324, 1e-7, uint8(3), int64(math.MinInt64), int64(math.MaxInt64), uint64(math.MaxUint64), uint8(0xff))
	f.Add("", "", "", "a", "b", "c", 1e21, 1e-6, 123456789.125, uint8(3), int64(-1), int64(1), uint64(1), uint8(0x55))
	f.Add("k", "t", "", "nan", "inf", "", math.NaN(), math.Inf(-1), 1.0, uint8(2), int64(2e6), int64(17e17), uint64(100001), uint8(1))
	f.Fuzz(func(t *testing.T, kernel, tenant, errText, k1, k2, k3 string, v1, v2, v3 float64,
		nkeys uint8, n1, n2 int64, u uint64, flags uint8) {
		floats := map[string]float64{}
		for i, k := range []string{k1, k2, k3}[:nkeys%4] {
			floats[k] = []float64{v1, v2, v3}[i]
		}
		h := Header{
			Kernel: kernel, Tenant: tenant,
			Error: errText, Code: k2, InvocationID: tenant,
			ColdStart: flags&4 != 0, CachedColdStart: flags&8 != 0,
			DurationNanos: n1, DeadlineNanos: n2, LeaseBytes: n2, LeaseLen: n1, LeaseResultLen: n1 ^ n2,
			StreamID: u, LeaseID: u >> 1, MuxVersion: flags, MaxStreams: int(n1),
		}
		if flags&16 != 0 {
			h.Params = floats
		} else {
			h.Values = floats
		}
		if flags&32 != 0 {
			h.Names = []string{kernel}
		}
		if flags&64 != 0 {
			h.Stats = json.RawMessage(`{"Kernels":1}`)
		}
		checkEncode(t, &h)
	})
}

// FuzzHeaderDecode throws arbitrary bytes at the scanner: it must decline
// them or decode them exactly as json.Unmarshal does.
func FuzzHeaderDecode(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame[10 : 10+binary.BigEndian.Uint32(frame[6:10])])
	}
	for _, hdr := range []string{
		`{"kernel": "a"}`, "{\"kernel\":\"a\"}\n", `{"kernel":"a","kernel":"b"}`, `{"kernel":null}`,
		`{"KERNEL":"a"}`, `{"kernel":"é\ud83d"}`, `{"kernel":"a\"b\\\/"}`, `{"streamID":18446744073709551616}`,
		`{"muxVersion":256}`, `{"params":{"a":1e999,"b":-0,"c":1E-7}}`, `{"params":{"a":1,"a":2},"values":{}}`,
		`{"maxStreams":-9223372036854775808,"coldStart":false}`, `{"names":["a"],"stats":{"x":[1]}}`,
	} {
		f.Add([]byte(hdr))
	}
	f.Fuzz(func(t *testing.T, hdr []byte) {
		checkDecode(t, hdr)
		var got, ref Header
		gerr, werr := decodeHeader(hdr, &got), json.Unmarshal(hdr, &ref)
		if (gerr != nil) != (werr != nil) || (werr == nil && !headersEqual(&got, &ref)) {
			t.Fatalf("header %q\ndecodeHeader   %+v, %v\njson.Unmarshal %+v, %v", hdr, got, gerr, ref, werr)
		}
	})
}

// parentFrameMessages is one message of every type, each with the fields
// that type carries. testdata/parent_frames.hex holds their frames as
// wire.Append encoded them before the header codec was written by hand
// (commit 7637b14, where the header went through json.Marshal).
func parentFrameMessages() []*Message {
	return []*Message{
		{Type: MsgRegister, Header: Header{Kernel: "matmul"}},
		{Type: MsgRegistered, Header: Header{Kernel: "matmul"}},
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel: "probe", Tenant: "victim-a", Params: map[string]float64{"work": 0, "op": 12345, "eps": 1e-7},
			DeadlineNanos: 1700000000000000000, StreamID: 100001, LeaseID: 7, LeaseLen: 4096,
		}, Body: []byte("in-band body")},
		{Version: VersionMux, Type: MsgResult, Header: Header{
			Values:    map[string]float64{"sum": 123456789, "mean": -0.25, "big": 1e21},
			ColdStart: true, CachedColdStart: true, InvocationID: "inv-100001", DurationNanos: 2000000,
			StreamID: 100001, LeaseID: 7, LeaseResultLen: 128,
		}, Body: []byte{0, 1, 2, 3}},
		{Version: VersionMux, Type: MsgError, Header: Header{
			Error: "kernel \"nope\" not registered <&>\n", Code: CodeUnknownKernel, StreamID: 3}},
		{Type: MsgList},
		{Type: MsgListResult, Header: Header{Names: []string{"matmul", "mci"}}},
		{Type: MsgStats},
		{Type: MsgStatsResult, Header: Header{Stats: json.RawMessage(`{"Kernels":1}`)}},
		{Type: MsgHello, Header: Header{MuxVersion: VersionMux}},
		{Version: VersionMux, Type: MsgHelloAck, Header: Header{MuxVersion: VersionMux, MaxStreams: 64}},
		{Version: VersionMux, Type: MsgCancel, Header: Header{StreamID: 42}},
		{Type: MsgControl, Body: []byte(`{"beat":1}`)},
		{Type: MsgControlAck, Body: []byte(`{"ok":true}`)},
		{Version: VersionMux, Type: MsgLease, Header: Header{StreamID: 9, LeaseBytes: 1 << 20}},
		{Version: VersionMux, Type: MsgLeaseAck, Header: Header{StreamID: 9, LeaseID: 3, LeaseBytes: 1 << 20}},
		{Version: VersionMux, Type: MsgLeaseRevoke, Header: Header{LeaseID: 3}},
	}
}

// TestParentFramesReproduced: the frames the parent commit put on the
// wire are the frames this one does, and they decode to the same messages.
func TestParentFramesReproduced(t *testing.T) {
	f, err := os.Open("testdata/parent_frames.hex")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var parent [][]byte
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			frame, err := hex.DecodeString(line)
			if err != nil {
				t.Fatal(err)
			}
			parent = append(parent, frame)
		}
	}
	msgs := parentFrameMessages()
	if len(parent) != len(msgs) || len(msgs) != int(MsgLeaseRevoke) {
		t.Fatalf("%d parent frames, %d messages, %d message types", len(parent), len(msgs), MsgLeaseRevoke)
	}
	for i, msg := range msgs {
		if msg.Type != MsgType(i+1) {
			t.Fatalf("message %d is a %v", i, msg.Type)
		}
		got, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("%v: %v", msg.Type, err)
		}
		if !bytes.Equal(got, parent[i]) {
			t.Errorf("%v: Append = %q\nparent frame  = %q", msg.Type, got, parent[i])
		}
		dec, err := Read(bytes.NewReader(parent[i]))
		if err != nil {
			t.Fatalf("%v: Read of the parent's frame: %v", msg.Type, err)
		}
		want := *msg
		if want.Version == 0 {
			want.Version = Version
		}
		if dec.Type != want.Type || dec.Version != want.Version || !bytes.Equal(dec.Body, want.Body) ||
			!headersEqual(&dec.Header, &want.Header) {
			t.Errorf("%v: parent frame decodes to %+v, want %+v", msg.Type, dec, want)
		}
	}
}

// nullMuxFrames are the request and reply of the benchmark's null-mux
// workload: a header-only invoke and its result on a multiplexed stream.
func nullMuxFrames() []*Message {
	return []*Message{
		{Version: VersionMux, Type: MsgInvoke, Header: Header{
			Kernel: "probe", Params: map[string]float64{"op": 12345, "work": 0}, StreamID: 112345}},
		{Version: VersionMux, Type: MsgResult, Header: Header{
			Values: map[string]float64{"sum": 987654321}, InvocationID: "inv-112345",
			DurationNanos: 2000000, StreamID: 112345}},
	}
}

// TestHeaderAllocationBudgets: encoding a header-only frame into a reused
// buffer allocates nothing, and decoding one allocates only what the
// caller keeps when the message is released: the invoke's params map (two
// allocations, none when the previous one was recycled), the result's
// values map (two) and invocation ID. Kernel names and map keys come from
// the name table.
func TestHeaderAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	readAllocs := map[MsgType]float64{MsgInvoke: 2, MsgResult: 3}
	for _, msg := range nullMuxFrames() {
		frame, err := Append(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, 2*len(frame))
		if got := testing.AllocsPerRun(100, func() {
			if buf, err = Append(buf[:0], msg); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Append of the null-mux %v frame: %v allocs, want 0", msg.Type, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := FrameSize(msg); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("FrameSize of the null-mux %v frame: %v allocs, want 0", msg.Type, got)
		}
		var rd bytes.Reader
		read := func() *Message {
			rd.Reset(frame)
			m, err := Read(&rd)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		if got := testing.AllocsPerRun(100, func() { Release(read()) }); got != readAllocs[msg.Type] {
			t.Errorf("Read of the null-mux %v frame: %v allocs, want %v", msg.Type, got, readAllocs[msg.Type])
		}
		if msg.Type != MsgInvoke {
			continue
		}
		if got := testing.AllocsPerRun(100, func() {
			m := read()
			RecycleParams(m.Header.Params)
			Release(m)
		}); got != 0 {
			t.Errorf("Read of the null-mux invoke frame, params recycled: %v allocs, want 0", got)
		}
	}
}

func BenchmarkHeaderEncode(b *testing.B) {
	for _, msg := range nullMuxFrames() {
		b.Run(msg.Type.String(), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = Append(buf[:0], msg)
			}
		})
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	for _, msg := range nullMuxFrames() {
		b.Run(msg.Type.String(), func(b *testing.B) {
			frame, _ := Append(nil, msg)
			var rd bytes.Reader
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				if _, err := Read(&rd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
