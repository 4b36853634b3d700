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

// drainBodyPool empties every body pool class, so the next read of a
// poolable body takes the allocating path.
func drainBodyPool() {
	for i := range bodyPools {
		for bodyPools[i].Get() != nil {
		}
	}
}

// classSize is the size of the smallest body pool class that holds n.
func classSize(n int) int {
	c := bodyPoolMin
	for c < n {
		c <<= 1
	}
	return c
}

// oneP runs the rest of the test on one P. A sync.Pool keeps a Put in a
// per-P slot other Ps cannot take from, so only there is the buffer put
// the next one got.
func oneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestReadAllocationBoundedByArrival holds the package comment's promise:
// a frame that claims a body and delivers k bytes of it costs memory in
// proportion to k, not to the claim, and returns no body. With the pool
// warm a claim inside its classes reads into a pooled buffer, which goes
// back to the pool when the stream runs short, while one beyond them
// allocates by arrival as before.
func TestReadAllocationBoundedByArrival(t *testing.T) {
	oneP(t)
	// What one Read allocates besides the body: the Message and the error.
	const slack = 2 << 10
	for _, claim := range []uint32{MaxBodyLen, bodyPoolMax} {
		head := []byte{'K', 'A', 'A', 'S', VersionMux, byte(MsgInvoke), 0, 0, 0, 2, '{', '}'}
		head = binary.BigEndian.AppendUint32(head, claim)
		for _, k := range []int{0, 1, 64 << 10, 300 << 10} {
			stream := append(bytes.Clone(head), make([]byte, k)...)
			// Warm the class a bodyPoolMax claim reads into, here rather than
			// once: the GCs that earlier claims' garbage sets off empty it.
			Recycle(make([]byte, bodyPoolMax))
			var rd bytes.Reader
			got := bytesPerOp(4, func() {
				rd.Reset(stream)
				msg, err := Read(&rd)
				if err == nil {
					t.Fatalf("claim=%d k=%d: truncated frame decoded", claim, k)
				}
				if msg != nil {
					t.Fatalf("claim=%d k=%d: truncated frame returned a message with %d body bytes", claim, k, len(msg.Body))
				}
			})
			limit := sectionGrowth * max(allocChunk, sectionGrowth*k) / (sectionGrowth - 1)
			if got > float64(limit+slack) {
				t.Errorf("claim=%d k=%d: Read allocated %.0f bytes, want <= %d (+%d)", claim, k, got, limit, slack)
			}
			if claim > bodyPoolMax && got < float64(k) {
				t.Errorf("k=%d: measured %.0f bytes, less than the stream delivered: the measurement is broken", k, got)
			}
			// Each short read must have put the pooled buffer back for the
			// next (the race detector drops pooled entries at random).
			if claim <= bodyPoolMax && !raceEnabled && got > slack {
				t.Errorf("claim=%d k=%d: Read allocated %.0f bytes with the pool warm, want <= %d", claim, k, got, slack)
			}
		}
	}
}

// TestReadSectionSteps pins the growth rule itself: the first buffer is
// the section or allocChunk, each later one sectionGrowth times what has
// arrived, the last exactly n. A read of a class size takes the pooled
// buffer, holding an earlier frame's bytes; a read of any other length
// leaves the next class's buffer in the pool.
func TestReadSectionSteps(t *testing.T) {
	oneP(t)
	for _, n := range []int{1, allocChunk, allocChunk + 1, 1 << 20, 1<<20 + 3} {
		src := bodyMessage(n).Body
		for _, pooled := range []bool{false, true} {
			drainBodyPool()
			var stale []byte
			if pooled {
				stale = bytes.Repeat([]byte{0xEE}, classSize(n))
				Recycle(stale)
			}
			got, err := readSection(bytes.NewReader(src), n)
			if err != nil {
				t.Fatalf("n=%d pooled=%v: %v", n, pooled, err)
			}
			if !bytes.Equal(got, src) {
				t.Errorf("n=%d pooled=%v: section bytes differ", n, pooled)
			}
			if len(got) != n || cap(got) != n {
				t.Errorf("n=%d pooled=%v: len, cap = %d, %d, want exactly n", n, pooled, len(got), cap(got))
			}
			if !pooled {
				continue
			}
			used := &got[0] == &stale[0]
			if bodyClass(n) < 0 && used {
				t.Errorf("n=%d: a read of a length that is not a class size took a %d-byte pooled buffer", n, len(stale))
			}
			// The race detector drops pooled entries at random.
			if bodyClass(n) >= 0 && !raceEnabled && !used {
				t.Errorf("n=%d: a read with a %d-byte buffer pooled did not use it", n, len(stale))
			}
		}
	}
	drainBodyPool()
}

// TestRecycleClasses: Recycle files a buffer whose capacity is a class
// size under that class, and leaves any other buffer to the GC.
func TestRecycleClasses(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	oneP(t)
	for _, tt := range []struct {
		cap, class int // class -1: not pooled
	}{
		{0, -1},
		{bodyPoolMin - 1, -1},
		{bodyPoolMin, 0},
		{2*bodyPoolMin - 1, -1},
		{2 * bodyPoolMin, 1},
		{1 << 20, 8},
		{1<<20 + 3, -1},
		{bodyPoolMax, bodyPoolClasses - 1},
		{bodyPoolMax + 1, -1},
		{2 * bodyPoolMax, -1},
	} {
		drainBodyPool()
		Recycle(make([]byte, 0, tt.cap))
		for i := range bodyPools {
			if got := bodyPools[i].Get() != nil; got != (i == tt.class) {
				t.Errorf("cap %d: class %d holds a buffer = %v, want %v", tt.cap, i, got, i == tt.class)
			}
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
// 1 MiB one within 1.35x), or not at all when the previous one was
// recycled; a sent body is not allocated at all.
func TestBodyAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	oneP(t)
	// A decoded Message with this header's strings and map.
	const perMessage, runs = 1 << 10, 100
	for _, tt := range []struct {
		n       int
		factor  float64
		recycle bool
	}{
		{4 << 10, 1, false}, {64 << 10, 1, false}, {1 << 20, 1.35, false},
		{64 << 10, 0, true}, {1 << 20, 0, true},
	} {
		drainBodyPool()
		msg := bodyMessage(tt.n)
		frame, _ := Append(nil, msg)
		var rd bytes.Reader
		read := bytesPerOp(runs, func() {
			rd.Reset(frame)
			got, err := Read(&rd)
			if err != nil {
				t.Fatal(err)
			}
			if tt.recycle {
				Recycle(got.Body)
			}
		})
		if limit := tt.factor*float64(tt.n) + perMessage; read > limit {
			t.Errorf("Read of a %d-byte body (recycled %v) allocates %.0f B/op, want <= %.0f", tt.n, tt.recycle, read, limit)
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
