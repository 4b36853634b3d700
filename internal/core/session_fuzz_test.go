package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// FuzzSession decodes its input as a script of client operations and
// plays it into one server session over net.Pipe. Each operation is one
// byte, op%8 (the tables below), followed by the argument bytes that op
// takes; a script that runs out of bytes simply ends.
//
//	0 HELLO     [version]        a HELLO offering any version
//	1 INVOKE    [flags] [args]   an invocation; flags select:
//	                               1  a stream ID (next byte) on a
//	                                  version-2 frame, else a version-1
//	                                  frame, i.e. stream 0
//	                               2  an unknown kernel
//	                               4  a lease handle the session never
//	                                  granted
//	                               8  an expired deadline
//	                              16  an in-band body of 64·(next byte)
//	                                  bytes
//	                              32  modeled work of (next byte) ms,
//	                                  as the params key "ms"
//	                              64  (next byte)%4 params "k0".."k7"
//	                                  with values from the bytes after
//	                             128  the param "alias": the kernel
//	                                  answers with its own params map
//	2 CANCEL    [pick]           CANCEL of an earlier invoke's stream
//	3 LIST
//	4 STATS
//	5 GARBAGE   [n] [n bytes]    bytes that cannot start a frame
//	6 CLOSE                      close the connection; the script ends
//	7 SETTLE                     wait for every outstanding reply
//
// The kernel echoes its params: each key k as "echo.k" beside "done",
// or, given "alias", the params map itself as its values, which the
// session must not recycle before the reply is written.
//
// The oracle:
//   - nothing panics;
//   - no stream gets more terminal frames (MsgResult or MsgError) than
//     invocations it carried, and every error carries one of the wire
//     protocol's codes;
//   - every result's values echo the params of one of its own stream's
//     invocations, each invocation answered at most once, so a params
//     map recycled while still in use, or decoded into across streams,
//     shows; and no reply carries the key a race build leaves in a
//     recycled params map;
//   - a script that neither closes nor sends garbage gets exactly one
//     terminal frame per invocation;
//   - once the connection closes, the session's goroutines exit and the
//     server's in-flight count returns to zero.
func FuzzSession(f *testing.F) {
	hello := []byte{0, wire.VersionMux}
	seeds := [][]byte{
		// Pipelined stream-less invocations: version-1 frames are all
		// stream 0 and carry no ordering promise.
		{1, 0, 1, 32, 40, 1, 0, 1, 0, 1, 32, 5},
		// The same, then a CANCEL of stream 0 and a disconnect.
		{1, 32, 200, 1, 32, 200, 2, 0, 6},
		// A multiplexed session: several streams, a CANCEL of the slow
		// one, LIST and STATS between them.
		append(append([]byte{}, hello...), 1, 33, 7, 250, 1, 1, 8, 1, 17, 9, 64, 2, 0, 3, 4, 7),
		// A lease handle this session never held, and an expired
		// deadline: both must still get their one error frame.
		append(append([]byte{}, hello...), 1, 5, 3, 1, 4, 1, 9, 4),
		// An unknown kernel, and a HELLO offering version 1 mid-session.
		{1, 2, 0, 1, 3, 1, 2},
		// Garbage while streams are in flight tears the session down.
		append(append([]byte{}, hello...), 1, 33, 1, 250, 1, 33, 2, 250, 5, 3, 'x', 'y', 'z'),
		// A disconnect with streams in flight cancels them.
		append(append([]byte{}, hello...), 1, 33, 1, 250, 1, 0, 6),
		// Streams with params, one answered with its own params map,
		// pipelined so that recycled maps are decoded into at once.
		append(append([]byte{}, hello...), 1, 65, 1, 3, 0, 7, 1, 9, 2, 11, 1, 193, 2, 2, 3, 4, 5, 6,
			1, 97, 3, 5, 2, 1, 40, 1, 64, 2, 6, 60, 7, 99, 1, 65, 1, 1, 7, 33, 7),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, accel.TeslaP100)
	if err != nil {
		f.Fatalf("NewHost: %v", err)
	}
	f.Cleanup(host.Close)
	srv, err := New(Config{Clock: clock, Host: host, Logger: slog.New(slog.NewTextHandler(&syncBuffer{}, nil))})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(srv.Close)
	if err := srv.Register(paramKernel{}); err != nil {
		f.Fatalf("Register: %v", err)
	}
	// Warm the runner so scripts are not all cold starts.
	if _, _, err := srv.Invoke(context.Background(), paramKernel{}.Name(), nil); err != nil {
		f.Fatalf("warm-up Invoke: %v", err)
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		tcp := &TCPServer{srv: srv, conns: make(map[net.Conn]struct{}), streamsLimit: 4}
		client, server := net.Pipe()
		tcp.wg.Add(1)
		go tcp.handle(server)
		defer client.Close()

		rec := newReplyLog()
		go rec.readAll(client)
		sent := playScript(t, client, script, rec)

		if !sent.closed && !sent.garbage {
			if missing := rec.settle(sent.invokes, 10*time.Second); missing != "" {
				t.Fatalf("invocations without a terminal frame: %s", missing)
			}
		}
		client.Close()
		if !waitTimeout(&tcp.wg, 10*time.Second) {
			t.Fatal("session handler did not return after the connection closed")
		}
		<-rec.done
		rec.check(t, sent)

		deadline := time.Now().Add(10 * time.Second)
		for {
			inFlight, sessions := srv.Stats().InFlight, sessionGoroutines()
			if inFlight == 0 && sessions == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("after close: %d invocations in flight, %d session goroutines alive", inFlight, sessions)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// paramKernel runs for Params["ms"] modeled milliseconds on a GPU, so a
// script decides which streams are still running when it cancels or
// disconnects.
type paramKernel struct{}

func (paramKernel) Name() string     { return "fuzz" }
func (paramKernel) Kind() accel.Kind { return accel.GPU }
func (paramKernel) Cost(req *kernels.Request) (kernels.Cost, error) {
	// A Tesla P100 runs 8e11 work units per modeled second.
	return kernels.Cost{Work: req.Params["ms"] * 8e8}, nil
}
func (paramKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	if _, ok := req.Params["alias"]; ok {
		return &kernels.Response{Values: req.Params}, nil
	}
	return &kernels.Response{Values: echoValues(req.Params)}, nil
}

// echoValues is what paramKernel answers to params without "alias".
func echoValues(params map[string]float64) map[string]float64 {
	values := map[string]float64{"done": 1}
	for k, v := range params {
		values["echo."+k] = v
	}
	return values
}

// scriptSent is what a script put on the wire.
type scriptSent struct {
	invokes map[uint64]int                  // invocations per stream ID
	values  map[uint64][]map[string]float64 // the values each would answer
	garbage bool
	closed  bool
}

// playScript decodes script and writes its operations to conn, stopping
// early when the connection fails.
func playScript(t *testing.T, conn net.Conn, script []byte, rec *replyLog) scriptSent {
	sent := scriptSent{invokes: make(map[uint64]int), values: make(map[uint64][]map[string]float64)}
	var streams []uint64 // stream of each invocation sent, for CANCEL
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	write := func(m *wire.Message) bool { return wire.Write(conn, m) == nil }
	for len(script) > 0 {
		var ok bool
		switch next() % 8 {
		case 0:
			ok = write(&wire.Message{Type: wire.MsgHello, Header: wire.Header{MuxVersion: next()}})
		case 1:
			flags := next()
			m := &wire.Message{Type: wire.MsgInvoke, Header: wire.Header{Kernel: paramKernel{}.Name()}}
			if flags&1 != 0 {
				m.Version, m.Header.StreamID = wire.VersionMux, uint64(next())
			}
			if flags&2 != 0 {
				m.Header.Kernel = "no-such-kernel"
			}
			if flags&4 != 0 {
				m.Header.LeaseID, m.Header.LeaseLen = 7, 1
			}
			if flags&8 != 0 {
				m.Header.DeadlineNanos = 1
			}
			if flags&16 != 0 {
				m.Body = bytes.Repeat([]byte{0xA5}, 64*int(next()))
			}
			params := make(map[string]float64)
			if flags&32 != 0 {
				params["ms"] = float64(next())
			}
			if flags&64 != 0 {
				for n := next() % 4; n > 0; n-- {
					params[fmt.Sprintf("k%d", next()%8)] = float64(next())
				}
			}
			if flags&128 != 0 {
				params["alias"] = 1
			}
			if len(params) > 0 {
				m.Header.Params = params
			}
			if ok = write(m); ok {
				id := m.Header.StreamID
				sent.invokes[id]++
				streams = append(streams, id)
				want := echoValues(params)
				if flags&128 != 0 {
					want = params
				}
				sent.values[id] = append(sent.values[id], want)
			}
		case 2:
			var id uint64
			if pick := int(next()); len(streams) > 0 {
				id = streams[pick%len(streams)]
			}
			ok = write(&wire.Message{Version: wire.VersionMux, Type: wire.MsgCancel, Header: wire.Header{StreamID: id}})
		case 3:
			ok = write(&wire.Message{Type: wire.MsgList})
		case 4:
			ok = write(&wire.Message{Type: wire.MsgStats})
		case 5:
			n := int(next())
			junk := append([]byte{0xFF}, script[:min(n, len(script))]...)
			script = script[min(n, len(script)):]
			sent.garbage = true
			_, err := conn.Write(junk)
			ok = err == nil
		case 6:
			conn.Close()
			sent.closed = true
			return sent
		case 7:
			// After garbage the session is ending and owes nothing more.
			if !sent.garbage {
				if missing := rec.settle(sent.invokes, 10*time.Second); missing != "" {
					t.Fatalf("SETTLE: invocations without a terminal frame: %s", missing)
				}
			}
			ok = true
		}
		if !ok {
			break
		}
	}
	return sent
}

// replyLog records the frames a session sends back.
type replyLog struct {
	mu        sync.Mutex
	cond      *sync.Cond
	terminals map[uint64]int                  // MsgResult/MsgError frames per stream ID
	results   map[uint64][]map[string]float64 // MsgResult values per stream ID
	uncoded   []string                        // MsgError frames without a known code
	done      chan struct{}
}

func newReplyLog() *replyLog {
	r := &replyLog{terminals: make(map[uint64]int), results: make(map[uint64][]map[string]float64),
		done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// readAll reads frames until the connection fails.
func (r *replyLog) readAll(conn net.Conn) {
	defer close(r.done)
	for {
		m, err := wire.Read(conn)
		if err != nil {
			return
		}
		r.mu.Lock()
		switch m.Type {
		case wire.MsgResult, wire.MsgError:
			r.terminals[m.Header.StreamID]++
			if m.Type == wire.MsgResult {
				r.results[m.Header.StreamID] = append(r.results[m.Header.StreamID], m.Header.Values)
			}
			if m.Type == wire.MsgError && !wireCodes[m.Header.Code] {
				r.uncoded = append(r.uncoded, m.Header.Error)
			}
			r.cond.Broadcast()
		}
		r.mu.Unlock()
	}
}

// settle waits until every stream has as many terminal frames as
// invocations, and otherwise names the streams still short.
func (r *replyLog) settle(invokes map[uint64]int, wait time.Duration) string {
	timer := time.AfterFunc(wait, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(wait)
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		var missing []uint64
		for id, n := range invokes {
			if r.terminals[id] < n {
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 {
			return ""
		}
		if !time.Now().Before(deadline) {
			return fmt.Sprintf("streams %v", missing)
		}
		r.cond.Wait()
	}
}

// check applies the per-stream oracle once the reader has stopped.
func (r *replyLog) check(t *testing.T, sent scriptSent) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, got := range r.terminals {
		want := sent.invokes[id]
		if id == 0 && sent.garbage {
			want++ // the protocol error that ends the session
		}
		if got > want {
			t.Errorf("stream %d: %d terminal frames for %d invocations", id, got, sent.invokes[id])
		}
	}
	if len(r.uncoded) > 0 {
		t.Errorf("error frames without a known code: %q", r.uncoded)
	}
	for id, results := range r.results {
		want := slices.Clone(sent.values[id])
		for _, got := range results {
			for k := range got {
				if strings.Contains(k, recycledParam) {
					t.Errorf("stream %d: result %v carries a recycled params map's sentinel", id, got)
				}
			}
			i := slices.IndexFunc(want, func(w map[string]float64) bool { return maps.Equal(w, got) })
			if i < 0 {
				t.Errorf("stream %d: result %v echoes none of its invocations' params %v", id, got, sent.values[id])
				continue
			}
			want = slices.Delete(want, i, i+1)
		}
	}
}

// recycledParam is the key a race build of the wire package leaves in a
// recycled params map.
const recycledParam = "wire: recycled"

// wireCodes are the codes an error frame may carry.
var wireCodes = map[string]bool{
	wire.CodeOverloaded: true, wire.CodeUnavailable: true, wire.CodeDeadlineExceeded: true,
	wire.CodeUnknownKernel: true, wire.CodeInternal: true, wire.CodeLeaseRevoked: true,
}

// sessionGoroutines counts live goroutines running a muxSession method.
func sessionGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("core.(*muxSession)."))
}

// waitTimeout waits for wg and reports whether it finished within d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
