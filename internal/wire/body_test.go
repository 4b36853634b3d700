package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"kaas/internal/faults"
)

// bodySizes brackets both send-path boundaries: the inline/vectored
// constant and the pooled frame buffer's cap.
var bodySizes = []int{0, inlineBodyMax, inlineBodyMax + 1, 64 << 10, 64<<10 + 1, 1 << 20}

// bodyMessage is an invoke-shaped frame with an n-byte patterned body.
func bodyMessage(n int) *Message {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i*7 + i>>8)
	}
	return &Message{
		Version: VersionMux,
		Type:    MsgInvoke,
		Header:  Header{Kernel: "probe", Params: map[string]float64{"op": 12345}, StreamID: 9},
		Body:    body,
	}
}

// bytesPerOp is the mean number of heap bytes f allocates per call.
func bytesPerOp(runs int, f func()) float64 {
	f() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadAllocationBoundedByArrival holds the package comment's promise:
// a frame that claims MaxBodyLen and delivers k bytes costs memory in
// proportion to k, not to the claim.
func TestReadAllocationBoundedByArrival(t *testing.T) {
	head := []byte{'K', 'A', 'A', 'S', VersionMux, byte(MsgInvoke), 0, 0, 0, 2, '{', '}'}
	head = binary.BigEndian.AppendUint32(head, MaxBodyLen)
	// What one Read allocates besides the body: the Message and the error.
	const slack = 2 << 10
	for _, k := range []int{0, 1, 64 << 10, 300 << 10} {
		stream := append(bytes.Clone(head), make([]byte, k)...)
		var rd bytes.Reader
		got := bytesPerOp(4, func() {
			rd.Reset(stream)
			if _, err := Read(&rd); err == nil {
				t.Fatalf("k=%d: truncated frame decoded", k)
			}
		})
		limit := sectionGrowth * max(allocChunk, sectionGrowth*k) / (sectionGrowth - 1)
		if got > float64(limit+slack) {
			t.Errorf("k=%d: Read allocated %.0f bytes, want <= %d (+%d)", k, got, limit, slack)
		}
		if got < float64(k) {
			t.Errorf("k=%d: measured %.0f bytes, less than the stream delivered: the measurement is broken", k, got)
		}
	}
}

// TestReadSectionSteps pins the growth rule itself: the first buffer is
// the section or allocChunk, each later one sectionGrowth times what has
// arrived, the last exactly n.
func TestReadSectionSteps(t *testing.T) {
	for _, n := range []int{1, allocChunk, allocChunk + 1, 1 << 20, 1<<20 + 3} {
		src := bodyMessage(n).Body
		got, err := readSection(bytes.NewReader(src), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, src) {
			t.Errorf("n=%d: section bytes differ", n)
		}
		if cap(got) != n {
			t.Errorf("n=%d: final buffer cap = %d, want exactly n", n, cap(got))
		}
	}
}

// tcpPair returns a loopback connection and a channel that yields every
// byte written to it once it is closed.
func tcpPair(t *testing.T) (*net.TCPConn, <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		ln.Close()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		all, _ := io.ReadAll(c)
		got <- all
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c.(*net.TCPConn), got
}

// TestWriteMatchesAppend: whatever path a frame takes out — one buffer,
// writev on a TCP connection, or two writes through a wrapper that hides
// the TCP connection — the bytes on the wire are Append's.
func TestWriteMatchesAppend(t *testing.T) {
	for _, n := range bodySizes {
		msg := bodyMessage(n)
		want, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if size, _ := FrameSize(msg); size != int64(len(want)) {
			t.Errorf("body %d: FrameSize = %d, frame = %d", n, size, len(want))
		}

		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			t.Fatalf("Write to buffer: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("body %d: bytes.Buffer output differs from Append", n)
		}

		for _, wrapped := range []bool{false, true} {
			tcp, got := tcpPair(t)
			var w net.Conn = tcp
			if wrapped {
				w = faults.NewConn(tcp, faults.Plan{})
			}
			// Two frames back to back: the second must start where the
			// first one's body ends.
			for i := 0; i < 2; i++ {
				if err := Write(w, msg); err != nil {
					t.Fatalf("Write to conn (wrapped=%v): %v", wrapped, err)
				}
			}
			w.Close()
			if !bytes.Equal(<-got, append(bytes.Clone(want), want...)) {
				t.Errorf("body %d: TCP output (wrapped=%v) differs from Append", n, wrapped)
			}
		}
	}
}

// TestAppendSplitBoundary: the inline/vectored choice depends on
// len(Body) alone, and both halves together are the frame.
func TestAppendSplitBoundary(t *testing.T) {
	prefix := []byte("earlier frames")
	for _, n := range bodySizes {
		msg := bodyMessage(n)
		want, _ := Append(bytes.Clone(prefix), msg)
		out, body, err := AppendSplit(bytes.Clone(prefix), msg)
		if err != nil {
			t.Fatalf("AppendSplit: %v", err)
		}
		if split := body != nil; split != (n > inlineBodyMax) {
			t.Errorf("body %d: split = %v, want %v", n, split, n > inlineBodyMax)
		}
		if body != nil && &body[0] != &msg.Body[0] {
			t.Errorf("body %d: split body is a copy", n)
		}
		if !bytes.Equal(append(out, body...), want) {
			t.Errorf("body %d: AppendSplit halves differ from Append", n)
		}
	}
}

// TestBodyAllocationBudgets: a received body is allocated once (and a
// 1 MiB one within 1.35x), a sent body not at all.
func TestBodyAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	// A decoded Message with this header's strings and map. The runs are
	// many so that a pooled buffer stranded on another P costs little.
	const perMessage, runs = 1 << 10, 100
	for _, tt := range []struct {
		n      int
		factor float64
	}{{4 << 10, 1}, {64 << 10, 1}, {1 << 20, 1.35}} {
		msg := bodyMessage(tt.n)
		frame, _ := Append(nil, msg)
		var rd bytes.Reader
		read := bytesPerOp(runs, func() {
			rd.Reset(frame)
			if _, err := Read(&rd); err != nil {
				t.Fatal(err)
			}
		})
		if limit := tt.factor*float64(tt.n) + perMessage; read > limit {
			t.Errorf("Read of a %d-byte body allocates %.0f B/op, want <= %.0f", tt.n, read, limit)
		}
		write := bytesPerOp(runs, func() {
			if err := Write(io.Discard, msg); err != nil {
				t.Fatal(err)
			}
		})
		if write >= 512 {
			t.Errorf("Write of a %d-byte body allocates %.0f B/op, want < 512", tt.n, write)
		}
	}
}

func BenchmarkReadBody(b *testing.B) {
	for _, n := range []int{4 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			frame, _ := Append(nil, bodyMessage(n))
			var rd bytes.Reader
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				if _, err := Read(&rd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteBody(b *testing.B) {
	for _, n := range []int{4 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			msg := bodyMessage(n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Write(io.Discard, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
