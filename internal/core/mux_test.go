package core

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// muxHandshake upgrades a raw connection to the multiplexed protocol
// and returns the server's acknowledgement.
func muxHandshake(t *testing.T, conn net.Conn) *wire.Message {
	t.Helper()
	err := wire.Write(conn, &wire.Message{Type: wire.MsgHello, Header: wire.Header{MuxVersion: wire.VersionMux}})
	if err != nil {
		t.Fatalf("write hello: %v", err)
	}
	ack, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read hello ack: %v", err)
	}
	if ack.Type != wire.MsgHelloAck || ack.Header.MuxVersion != wire.VersionMux {
		t.Fatalf("hello ack = %s (mux version %d), want ack at version %d",
			ack.Type, ack.Header.MuxVersion, wire.VersionMux)
	}
	return ack
}

// TestMuxPipelinedStreams pipelines several invocations over one
// upgraded connection without waiting for replies in between: the
// server must dispatch them concurrently and answer every stream,
// in whatever order, each reply tagged with its StreamID.
func TestMuxPipelinedStreams(t *testing.T) {
	_, tcp, _ := startTCP(t)
	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)

	// Register over the mux session itself (registrations ride the same
	// framing, just inline).
	err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgRegister, Header: wire.Header{
		Kernel: "matmul", StreamID: 100,
	}})
	if err != nil {
		t.Fatalf("write register: %v", err)
	}
	reg, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read register reply: %v", err)
	}
	if reg.Type != wire.MsgRegistered || reg.Header.StreamID != 100 {
		t.Fatalf("register reply = %s (stream %d), want registered on stream 100",
			reg.Type, reg.Header.StreamID)
	}

	const streams = 8
	for id := uint64(1); id <= streams; id++ {
		err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: wire.Header{
			Kernel:   "matmul",
			Params:   map[string]float64{"n": 32, "seed": float64(id)},
			StreamID: id,
		}})
		if err != nil {
			t.Fatalf("write invoke %d: %v", id, err)
		}
	}

	got := make(map[uint64]bool)
	for i := 0; i < streams; i++ {
		reply, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("read reply %d: %v", i, err)
		}
		if reply.Type != wire.MsgResult {
			t.Fatalf("reply %d = %s (%s), want result", i, reply.Type, reply.Header.Error)
		}
		if reply.Version != wire.VersionMux {
			t.Errorf("reply version = %d, want %d", reply.Version, wire.VersionMux)
		}
		id := reply.Header.StreamID
		if id < 1 || id > streams || got[id] {
			t.Fatalf("reply %d has unexpected or duplicate stream %d", i, id)
		}
		got[id] = true
		if reply.Header.Values["checksum"] <= 0 {
			t.Errorf("stream %d checksum = %v", id, reply.Header.Values["checksum"])
		}
	}
}

// TestMuxCancelFrameStopsKernel sends a CANCEL frame for an in-flight
// stream: the server must cancel that invocation's context (freeing the
// device long before the kernel would finish), answer the stream with a
// deadline-class error, and keep the connection serving other streams.
func TestMuxCancelFrameStopsKernel(t *testing.T) {
	srv, tcp, _ := startTCP(t)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)

	err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: wire.Header{
		Kernel: "slow", StreamID: 1,
	}})
	if err != nil {
		t.Fatalf("write invoke: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "invocation in flight")

	err = wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgCancel, Header: wire.Header{
		StreamID: 1,
	}})
	if err != nil {
		t.Fatalf("write cancel: %v", err)
	}
	reply, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read cancel reply: %v", err)
	}
	if reply.Type != wire.MsgError || reply.Header.StreamID != 1 {
		t.Fatalf("cancel reply = %s (stream %d), want error on stream 1", reply.Type, reply.Header.StreamID)
	}
	if reply.Header.Code != wire.CodeDeadlineExceeded {
		t.Errorf("cancel reply code = %q, want %q", reply.Header.Code, wire.CodeDeadlineExceeded)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "device to be freed")

	// The connection outlives the per-stream cancel.
	err = wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgList, Header: wire.Header{
		StreamID: 2,
	}})
	if err != nil {
		t.Fatalf("write list: %v", err)
	}
	if reply, err = wire.Read(conn); err != nil || reply.Type != wire.MsgListResult {
		t.Fatalf("list after cancel = %v, %v; want list result", reply, err)
	}
}

// TestMuxHelloNegotiation pins the version negotiation rules: the
// server speaks only the multiplexed protocol, so an offer of the legacy
// version is still acknowledged at version 2 with the per-connection
// stream bound, and the connection keeps serving afterwards.
func TestMuxHelloNegotiation(t *testing.T) {
	srv, tcp, _ := startTCP(t)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tcp.SetMaxConnStreams(3)

	for _, offer := range []uint8{wire.Version, wire.VersionMux} {
		conn := dialWire(t, tcp.Addr())
		if err := wire.Write(conn, &wire.Message{Type: wire.MsgHello, Header: wire.Header{MuxVersion: offer}}); err != nil {
			t.Fatalf("offer %d: write hello: %v", offer, err)
		}
		ack, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("offer %d: read ack: %v", offer, err)
		}
		if ack.Type != wire.MsgHelloAck || ack.Header.MuxVersion != wire.VersionMux || ack.Header.MaxStreams != 3 {
			t.Fatalf("offer %d: ack = %s (mux version %d, max streams %d), want ack at version %d with 3 streams",
				offer, ack.Type, ack.Header.MuxVersion, ack.Header.MaxStreams, wire.VersionMux)
		}
		if err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgList, Header: wire.Header{StreamID: 1}}); err != nil {
			t.Fatalf("offer %d: write list: %v", offer, err)
		}
		if reply, err := wire.Read(conn); err != nil || reply.Type != wire.MsgListResult || reply.Header.StreamID != 1 {
			t.Fatalf("offer %d: list after hello = %v, %v; want list result on stream 1", offer, reply, err)
		}
	}
}

// TestMuxDrainFinishesStreams drains the endpoint while a multiplexed
// stream is mid-kernel: the stream must run to completion and deliver
// its reply before the drain finishes, matching the legacy connection
// drain semantics.
func TestMuxDrainFinishesStreams(t *testing.T) {
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, accel.TeslaP100)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := New(Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	k := &execHookKernel{
		fakeKernel: &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()},
		onExecute: func() {
			started <- struct{}{}
			<-gate
		},
	}
	if err := srv.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tcp, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })

	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)
	err = wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: wire.Header{
		Kernel: "k", StreamID: 9,
	}})
	if err != nil {
		t.Fatalf("write invoke: %v", err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("invocation never reached the kernel")
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- tcp.Drain(context.Background()) }()

	// The drain must wait for the in-flight stream.
	select {
	case err := <-drainDone:
		t.Fatalf("drain finished with a stream mid-kernel: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(gate)
	reply, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read reply during drain: %v", err)
	}
	if reply.Type != wire.MsgResult || reply.Header.StreamID != 9 {
		t.Fatalf("drain reply = %s (stream %d), want result on stream 9", reply.Type, reply.Header.StreamID)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not finish after the stream completed")
	}
}

// echoKernel returns its input payload and its "op" param.
type echoKernel struct{}

func (echoKernel) Name() string     { return "echo" }
func (echoKernel) Kind() accel.Kind { return accel.GPU }
func (echoKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{Work: 1}, nil
}
func (echoKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{Values: map[string]float64{"op": req.Params["op"]}, Data: req.Data}, nil
}

// tailEchoKernel answers with its payload past the first 8 bytes: a reply
// body inside the request body's backing array, not at its start.
type tailEchoKernel struct{ echoKernel }

func (tailEchoKernel) Name() string { return "echo-tail" }
func (tailEchoKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{Values: map[string]float64{"op": req.Params["op"]}, Data: req.Data[8:]}, nil
}

// TestMuxReplyAliasingRequestBody: a kernel may answer with a slice of its
// request body, so the server must not recycle a body its reply shares.
// Inline, the reply is written before the stream ends; through the writer
// queue it is read afterwards, while the session's reader fills the next
// requests' bodies.
func TestMuxReplyAliasingRequestBody(t *testing.T) {
	srv, tcp, _ := startTCP(t)
	for _, k := range []kernels.Kernel{slowKernel{}, tailEchoKernel{}} {
		if err := srv.Register(k); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	payload := func(id uint64) []byte {
		b := make([]byte, 256<<10)
		for i := range b {
			b[i] = byte(uint64(i)*13 + id)
		}
		return b
	}
	invoke := func(conn net.Conn, id uint64) error {
		return wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: wire.Header{
			Kernel: "echo-tail", Params: map[string]float64{"op": float64(id)}, StreamID: id,
		}, Body: payload(id)})
	}
	// check reads one reply and returns its stream.
	check := func(t *testing.T, conn net.Conn) uint64 {
		t.Helper()
		reply, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		id := reply.Header.StreamID
		if reply.Type != wire.MsgResult {
			t.Fatalf("stream %d: reply %s (%s), want result", id, reply.Type, reply.Header.Error)
		}
		if !bytes.Equal(reply.Body, payload(id)[8:]) {
			t.Errorf("stream %d: reply body (%d bytes) is not its request's tail", id, len(reply.Body))
		}
		return id
	}
	dial := func(t *testing.T) net.Conn {
		conn := dialWire(t, tcp.Addr())
		muxHandshake(t, conn)
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		return conn
	}

	t.Run("inline", func(t *testing.T) {
		conn := dial(t)
		for id := uint64(1); id <= 8; id++ {
			if err := invoke(conn, id); err != nil {
				t.Fatalf("write invoke %d: %v", id, err)
			}
			if got := check(t, conn); got != id {
				t.Fatalf("reply on stream %d, want %d", got, id)
			}
		}
	})

	t.Run("queued", func(t *testing.T) {
		conn := dial(t)
		// A slow stream in flight keeps a second slot taken, so every echo
		// reply goes through the writer queue.
		err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke,
			Header: wire.Header{Kernel: "slow", StreamID: 1 << 20}})
		if err != nil {
			t.Fatalf("write slow invoke: %v", err)
		}
		waitFor(t, 5*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "slow invocation in flight")
		// Every request goes out before any reply is read: the replies'
		// 12 MiB fill the socket, so queued replies wait in the writer
		// while the reader takes in the later requests. The session's
		// stream and queue bounds (64 each) hold them all.
		const streams = 48
		for id := uint64(1); id <= streams; id++ {
			if err := invoke(conn, id); err != nil {
				t.Fatalf("write invoke %d: %v", id, err)
			}
		}
		seen := make(map[uint64]bool)
		for i := 0; i < streams; i++ {
			id := check(t, conn)
			if seen[id] {
				t.Fatalf("stream %d answered twice", id)
			}
			seen[id] = true
		}
	})
}

// TestMuxWriterKeepsFramesWholeAndOrdered pipelines eight streams over one
// connection, half with 256 KiB bodies the writer sends from where they
// lie and half header-only, all through the coalescing writer: every
// reply must decode off the socket stream and carry its own request's
// bytes, whatever order the streams finish in.
func TestMuxWriterKeepsFramesWholeAndOrdered(t *testing.T) {
	srv, tcp, _ := startTCP(t)
	for _, k := range []kernels.Kernel{slowKernel{}, echoKernel{}} {
		if err := srv.Register(k); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)
	// A torn frame leaves the reader waiting for bytes that never come.
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	// A slow stream in flight throughout keeps a second stream slot taken,
	// so no echo reply is written inline: all go through the writer queue.
	const slowStream = 1 << 20
	err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke,
		Header: wire.Header{Kernel: "slow", StreamID: slowStream}})
	if err != nil {
		t.Fatalf("write slow invoke: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "slow invocation in flight")

	const streams, rounds = 8, 6
	payload := func(id uint64) []byte {
		if id%2 == 0 {
			return nil
		}
		b := make([]byte, 256<<10)
		for i := range b {
			b[i] = byte(uint64(i)*7 + id)
		}
		return b
	}
	writeErr := make(chan error, 1)
	go func() {
		for id := uint64(1); id <= streams*rounds; id++ {
			err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: wire.Header{
				Kernel: "echo", Params: map[string]float64{"op": float64(id)}, StreamID: id,
			}, Body: payload(id)})
			if err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()

	seen := make(map[uint64]bool)
	for i := 0; i < streams*rounds; i++ {
		reply, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("read reply %d: %v", i, err)
		}
		id := reply.Header.StreamID
		if reply.Type != wire.MsgResult {
			t.Fatalf("stream %d: reply %s (%s), want result", id, reply.Type, reply.Header.Error)
		}
		if seen[id] {
			t.Fatalf("stream %d answered twice", id)
		}
		seen[id] = true
		if reply.Header.Values["op"] != float64(id) {
			t.Errorf("stream %d: reply carries op %v", id, reply.Header.Values["op"])
		}
		if !bytes.Equal(reply.Body, payload(id)) {
			t.Errorf("stream %d: reply body (%d bytes) is not the request's", id, len(reply.Body))
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("write invoke: %v", err)
	}
}
