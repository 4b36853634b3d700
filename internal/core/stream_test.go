package core

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// TestStreamEndCodes: however a stream's context ends — a CANCEL frame,
// the peer hanging up, a wire deadline that expires mid-flight or one that
// had expired on arrival — the stream's error frame carries
// DEADLINE_EXCEEDED and the invocation leaves the server. The hang-up
// closes only the client's write half, so the session reads EOF, cancels
// the stream and can still deliver its reply.
func TestStreamEndCodes(t *testing.T) {
	cases := []struct {
		name     string
		deadline func() int64
		end      func(t *testing.T, conn *net.TCPConn)
	}{
		{"cancel frame", nil, func(t *testing.T, conn *net.TCPConn) {
			err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgCancel,
				Header: wire.Header{StreamID: 1}})
			if err != nil {
				t.Fatalf("write cancel: %v", err)
			}
		}},
		{"disconnect", nil, func(t *testing.T, conn *net.TCPConn) {
			if err := conn.CloseWrite(); err != nil {
				t.Fatalf("CloseWrite: %v", err)
			}
		}},
		{"deadline mid-flight", func() int64 { return time.Now().Add(300 * time.Millisecond).UnixNano() }, nil},
		{"deadline on arrival", func() int64 { return time.Now().Add(-time.Second).UnixNano() }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, tcp, _ := startTCP(t)
			if err := srv.Register(slowKernel{}); err != nil {
				t.Fatalf("Register: %v", err)
			}
			conn := dialWire(t, tcp.Addr()).(*net.TCPConn)
			muxHandshake(t, conn)
			h := wire.Header{Kernel: "slow", StreamID: 1}
			if tc.deadline != nil {
				h.DeadlineNanos = tc.deadline()
			}
			if err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: h}); err != nil {
				t.Fatalf("write invoke: %v", err)
			}
			if tc.end != nil {
				waitFor(t, 5*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "invocation in flight")
				tc.end(t, conn)
			}
			// The slow kernel runs ~5 s of wall time unless cancelled.
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			reply, err := wire.Read(conn)
			if err != nil {
				t.Fatalf("read reply: %v", err)
			}
			if reply.Type != wire.MsgError || reply.Header.StreamID != 1 {
				t.Fatalf("reply = %s on stream %d (%s), want an error on stream 1",
					reply.Type, reply.Header.StreamID, reply.Header.Error)
			}
			if reply.Header.Code != wire.CodeDeadlineExceeded {
				t.Errorf("reply code = %q (%s), want %q", reply.Header.Code, reply.Header.Error, wire.CodeDeadlineExceeded)
			}
			waitFor(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "in-flight drain")
		})
	}
}

// startSession serves one session over net.Pipe and returns the client
// end and the session, whose stream table the test may inspect.
func startSession(t *testing.T, srv *Server) (net.Conn, *muxSession) {
	t.Helper()
	tcp := &TCPServer{srv: srv, conns: make(map[net.Conn]struct{}), streamsLimit: 4}
	client, server := net.Pipe()
	s := newMuxSession(tcp, server)
	done := make(chan struct{})
	go s.writeLoop()
	go func() {
		s.readLoop()
		server.Close()
		close(done)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	return client, s
}

// gatedKernel returns a kernel that signals entered from inside Execute
// and then blocks until release is closed.
func gatedKernel(name string) (k *execHookKernel, entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}, 1), make(chan struct{})
	k = &execHookKernel{
		fakeKernel: &fakeKernel{name: name, kind: accel.GPU},
		onExecute: func() {
			entered <- struct{}{}
			<-release
		},
	}
	return k, entered, release
}

// TestStreamContextOutlivesCall: a stream's context carries the frame's
// wire deadline while the call runs, and once the stream ends it reports
// Done closed and a non-nil Err to whoever kept it — whether its done
// channel was made during the call or first asked for afterwards. Each
// call gets its own context.
func TestStreamContextOutlivesCall(t *testing.T) {
	srv, _ := newSingleSlotServer(t)
	k, entered, release := gatedKernel("gate")
	if err := srv.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn, sess := startSession(t, srv)
	streamOf := func(id uint64) *stream {
		sess.streamsMu.Lock()
		defer sess.streamsMu.Unlock()
		return sess.streams[id]
	}

	var kept []*stream
	var earlyDone <-chan struct{}
	for i, askEarly := range []bool{true, false} {
		id := uint64(i + 1)
		deadline := time.Now().Add(time.Hour).UnixNano()
		err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke,
			Header: wire.Header{Kernel: "gate", StreamID: id, DeadlineNanos: deadline}})
		if err != nil {
			t.Fatalf("write invoke: %v", err)
		}
		<-entered
		st := streamOf(id)
		if st == nil {
			t.Fatalf("stream %d is not in the session's table while its kernel runs", id)
		}
		if dl, ok := st.Deadline(); !ok || dl.UnixNano() != deadline {
			t.Errorf("stream %d Deadline() = %v, %v; want the wire deadline %v", id, dl, ok, time.Unix(0, deadline))
		}
		if err := st.Err(); err != nil {
			t.Errorf("stream %d Err() = %v while its call runs", id, err)
		}
		if askEarly {
			earlyDone = st.Done()
		}
		release <- struct{}{}
		reply, err := wire.Read(conn)
		if err != nil || reply.Type != wire.MsgResult {
			t.Fatalf("reply on stream %d = %v, %v; want a result", id, reply, err)
		}
		kept = append(kept, st)
	}
	// The reply can leave before the stream worker ends the stream.
	waitFor(t, 2*time.Second, func() bool { return streamOf(1) == nil && streamOf(2) == nil }, "streams to end")

	if kept[0] == kept[1] {
		t.Fatal("two calls shared one stream context")
	}
	select {
	case <-earlyDone:
	default:
		t.Error("a Done channel taken during the call is still open after it")
	}
	for i, st := range kept {
		select {
		case <-st.Done():
		default:
			t.Errorf("call %d: Done() open after the call", i+1)
		}
		if !errors.Is(st.Err(), context.Canceled) {
			t.Errorf("call %d: Err() = %v after the call, want context.Canceled", i+1, st.Err())
		}
	}
}

// TestAdmissionSeesWireDeadline: deadline-aware admission reads the
// stream's context deadline, so a frame whose deadline is shorter than the
// kernel's expected wait is shed OVERLOADED on arrival rather than
// admitted and left to expire.
func TestAdmissionSeesWireDeadline(t *testing.T) {
	clock := vclock.Scaled(1e6)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, nullProfile)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := New(Config{Clock: clock, Host: host, MaxInFlightTotal: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	if err := srv.Register(nullKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv.adm.mu.Lock()
	(*srv.table.Load())["null"].ewmaWall = float64(10 * time.Second)
	srv.adm.mu.Unlock()

	conn, _ := startSession(t, srv)
	for _, tc := range []struct {
		deadline time.Duration
		want     wire.MsgType
	}{
		{time.Second, wire.MsgError}, // 10 s expected, 1 s left: shed
		{0, wire.MsgResult},          // no deadline: served
	} {
		h := wire.Header{Kernel: "null", StreamID: 1}
		if tc.deadline > 0 {
			h.DeadlineNanos = time.Now().Add(tc.deadline).UnixNano()
		}
		if err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: h}); err != nil {
			t.Fatalf("write invoke: %v", err)
		}
		reply, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		if reply.Type != tc.want {
			t.Fatalf("deadline %v: reply %s (%s), want %s", tc.deadline, reply.Type, reply.Header.Error, tc.want)
		}
		if tc.want == wire.MsgError && (reply.Header.Code != wire.CodeOverloaded || !strings.Contains(reply.Header.Error, "deadline")) {
			t.Errorf("deadline %v: error %q (%s), want OVERLOADED naming the deadline", tc.deadline, reply.Header.Code, reply.Header.Error)
		}
	}
}

// TestColdStartSlotWaitEndsPromptly: a cold start blocked on a device
// whose only slot is busy waits on the stream's own context, without
// deriving one per retry slice: cancelling the stream mid-wait ends the
// call with Canceled at once, and a cold start that is left waiting
// evicts the busy runner as soon as it goes idle.
func TestColdStartSlotWaitEndsPromptly(t *testing.T) {
	srv, _ := newSingleSlotServer(t)
	busy, entered, release := gatedKernel("busy")
	for _, k := range []*execHookKernel{busy, {fakeKernel: &fakeKernel{name: "cold", kind: accel.GPU}}} {
		if err := srv.Register(k); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	// The busy runner holds the only slot while its kernel is gated.
	busyDone := make(chan error, 1)
	go func() {
		_, _, err := srv.Invoke(context.Background(), "busy", nil)
		busyDone <- err
	}()
	<-entered

	invoke := func(st *stream) chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := srv.Invoke(st, "cold", &st.req)
			done <- err
		}()
		return done
	}
	dev := srv.cfg.Host.Devices()[0]
	waiting := func() bool { return srv.devMet[dev.ID()].queueDepth.Value() == 1 }

	st := &stream{}
	done := invoke(st)
	waitFor(t, 2*time.Second, waiting, "cold start to wait for the slot")
	start := time.Now()
	st.cancel(context.Canceled)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled cold start = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Errorf("cancelled cold start returned after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled cold start did not return")
	}

	st = &stream{}
	done = invoke(st)
	waitFor(t, 2*time.Second, waiting, "second cold start to wait for the slot")
	close(release)
	if err := <-busyDone; err != nil {
		t.Fatalf("busy invoke: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cold start after the busy runner went idle: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cold start never evicted the idle runner")
	}
	st.cancel(context.Canceled)
	if got := srv.devMet[dev.ID()].evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}
