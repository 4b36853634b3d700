package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"kaas/internal/kernels"
	"kaas/internal/shm"
	"kaas/internal/wire"
)

// DefaultMaxConnStreams bounds how many invocations one multiplexed
// connection may have in flight before the server stops reading new
// frames from it (per-connection backpressure). The server-wide
// admission limits (Config.MaxInFlightTotal and friends) still apply on
// top of this bound.
const DefaultMaxConnStreams = 64

// maxCoalescedWrite caps how many reply bytes the session writer batches
// into one socket write before flushing.
const maxCoalescedWrite = 64 << 10

// muxSession serves one connection of the multiplexed protocol: a single
// reader goroutine (the connection's handler) fans invocation frames out
// to bounded stream workers, and a single writer goroutine serializes
// their replies back onto the socket, coalescing bursts into one write.
// Every reply carries its request's Version and StreamID; a frame that
// names no stream is stream 0, served like any other with no ordering
// promise. Per-stream MsgCancel frames cancel the matching in-flight
// invocation's context without disturbing sibling streams, and the
// reader's blocked read is the disconnect detector that cancels them all.
type muxSession struct {
	t    *TCPServer
	conn net.Conn
	br   *bufio.Reader

	// wmu guards socket writes. The reply path is adaptive: with a
	// single stream in flight, repliers write inline (no goroutine
	// handoff); with siblings active they enqueue to the writer
	// goroutine, which batches the backlog into coalesced writes — many
	// frames per syscall. failed flips once a write error closes the
	// connection; later replies are discarded.
	wmu        sync.Mutex
	failed     atomic.Bool
	writeCh    chan *wire.Message
	writerDone chan struct{}
	sem        chan struct{}
	// work hands an invocation frame to a parked stream worker. Workers
	// are reused across streams — a fresh goroutine would re-grow its
	// stack through Server.Invoke on every call — and exit when the
	// session finishes.
	work chan *wire.Message

	streamsMu sync.Mutex // guards streams
	streams   map[uint64]*stream

	wg sync.WaitGroup
}

func newMuxSession(t *TCPServer, conn net.Conn) *muxSession {
	return &muxSession{
		t:          t,
		conn:       conn,
		br:         bufio.NewReaderSize(conn, 32<<10),
		writeCh:    make(chan *wire.Message, 64),
		writerDone: make(chan struct{}),
		sem:        make(chan struct{}, t.maxConnStreams()),
		work:       make(chan *wire.Message),
		streams:    make(map[uint64]*stream),
	}
}

// handle runs a session on an accepted connection until the peer
// disconnects or the endpoint drains.
func (t *TCPServer) handle(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	s := newMuxSession(t, conn)
	go s.writeLoop()
	s.readLoop()
	if t.arena != nil {
		// Client disconnect mid-lease: every lease this connection held is
		// revoked so its bytes return to the arena budget. No notice is
		// sent — the peer is gone.
		if n := t.arena.RevokeOwner(s); n > 0 {
			t.srv.Logger().Info("released arena leases on disconnect",
				"remote", conn.RemoteAddr(), "leases", n)
		}
	}
}

// readLoop reads frames until the connection dies or the drain poke
// fires, then joins the in-flight streams and the writer.
func (s *muxSession) readLoop() {
	for {
		msg, err := wire.Read(s.br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && s.t.isDraining() {
				// Poked out of the read by Drain: in-flight streams
				// finish and get their replies, then the connection
				// closes gracefully.
				s.finish(false)
				return
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// The peer is not speaking the protocol (or the stream
				// desynchronized): tell it why, best effort.
				s.send(&wire.Message{Type: wire.MsgError, Header: errHeader(err)})
			}
			// Peer gone: cancel every in-flight stream so runners stop
			// burning device time for answers nobody will read.
			s.finish(true)
			return
		}
		switch msg.Type {
		case wire.MsgInvoke:
			s.sem <- struct{}{} // per-connection stream bound
			s.wg.Add(1)
			select {
			case s.work <- msg: // a parked worker takes it
			default:
				go s.streamWorker(msg)
			}
			continue // serveInvoke releases msg when its stream ends
		case wire.MsgCancel:
			s.cancelStream(msg.Header.StreamID)
		case wire.MsgLease:
			s.serveLease(msg)
		case wire.MsgHello:
			// The server speaks only the multiplexed protocol: every offer
			// is acknowledged at version 2 with the stream bound this
			// session enforces.
			s.reply(msg, wire.MsgHelloAck, wire.Header{MuxVersion: wire.VersionMux, MaxStreams: cap(s.sem)}, nil)
		case wire.MsgRegister:
			s.serveRegister(msg)
		case wire.MsgList:
			s.reply(msg, wire.MsgListResult, wire.Header{Names: s.t.srv.Kernels()}, nil)
		case wire.MsgStats:
			s.serveStats(msg)
		case wire.MsgControl:
			s.serveControl(msg)
		default:
			s.sendErr(msg, fmt.Errorf("unexpected message type %s", msg.Type))
		}
		// Inline handlers copy what they keep (a control body is the
		// handler's): the request ends here.
		wire.Release(msg)
	}
}

// streamWorker serves invocation streams one after another, starting
// with msg, until the session finishes.
func (s *muxSession) streamWorker(msg *wire.Message) {
	for ok := true; ok; msg, ok = <-s.work {
		s.serveInvoke(msg)
		<-s.sem
		s.wg.Done()
	}
}

// finish joins the session: optionally cancels all in-flight streams,
// waits for their replies to be queued, then dismisses the stream
// workers and flushes and stops the writer.
func (s *muxSession) finish(cancelStreams bool) {
	if cancelStreams {
		s.streamsMu.Lock()
		for _, st := range s.streams {
			st.cancel(context.Canceled)
		}
		s.streamsMu.Unlock()
	}
	s.wg.Wait()
	close(s.work)
	close(s.writeCh)
	<-s.writerDone
}

// writeFailed records a write error once: the connection closes (which
// fails the read loop) and later replies are discarded.
func (s *muxSession) writeFailed(err error) {
	if s.failed.Swap(true) {
		return
	}
	s.t.srv.Logger().Warn("reply write failed, closing connection",
		"remote", s.conn.RemoteAddr(), "err", err)
	s.conn.Close()
}

// writeLoop drains replies that lost the inline-write race, coalescing
// queued bursts into one socket write. A reply whose body
// wire.AppendSplit leaves in place ends its batch: the small frames queued
// before it, its head and its body leave in that order in one vectored
// write.
func (s *muxSession) writeLoop() {
	defer close(s.writerDone)
	buf := make([]byte, 0, 16<<10)
	var body []byte
	// appendMsg encodes a queued reply and releases it: a body AppendSplit
	// leaves in place is held in body, not in the message.
	appendMsg := func(m *wire.Message) {
		if s.failed.Load() {
			return
		}
		var err error
		buf, body, err = wire.AppendSplit(buf, m)
		if err != nil {
			s.t.srv.Logger().Warn("reply encode failed",
				"remote", s.conn.RemoteAddr(), "type", m.Type.String(), "err", err)
		}
		wire.Release(m)
	}
	flush := func() {
		if !s.failed.Load() && len(buf) > 0 {
			s.wmu.Lock()
			err := wire.WriteSplit(s.conn, buf, body)
			s.wmu.Unlock()
			if err != nil {
				s.writeFailed(err)
			}
		}
		buf, body = buf[:0], nil
	}
	for msg := range s.writeCh {
		appendMsg(msg)
		// When the queue momentarily empties, yield once before flushing:
		// repliers blocked on the scheduler get a chance to append their
		// frames to this batch, deepening it by several frames per
		// syscall under load.
		yielded := false
	coalesce:
		for body == nil && len(buf) < maxCoalescedWrite {
			select {
			case next, ok := <-s.writeCh:
				if !ok {
					flush()
					return
				}
				appendMsg(next)
			default:
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue
				}
				break coalesce
			}
		}
		flush()
	}
	flush()
}

// send hands one reply to the transport: inline on the socket when this
// is the connection's only in-flight stream (lowest latency), otherwise
// through the coalescing writer (fewest syscalls). The transport owns msg
// from here and releases it once encoded.
func (s *muxSession) send(msg *wire.Message) {
	if s.failed.Load() {
		return
	}
	if len(s.sem) <= 1 && s.wmu.TryLock() {
		err := wire.Write(s.conn, msg)
		s.wmu.Unlock()
		wire.Release(msg)
		if err != nil {
			s.writeFailed(err)
		}
		return
	}
	s.writeCh <- msg
}

// reply answers req in kind: same protocol version, same stream.
func (s *muxSession) reply(req *wire.Message, typ wire.MsgType, h wire.Header, body []byte) {
	m := wire.NewMessage()
	m.Version, m.Type, m.Header, m.Body = req.Version, typ, h, body
	m.Header.StreamID = req.Header.StreamID
	s.send(m)
}

// sendErr answers req with an error, classified with the wire
// protocol's machine-readable code.
func (s *muxSession) sendErr(req *wire.Message, err error) {
	s.reply(req, wire.MsgError, errHeader(err), nil)
}

// addStream registers a stream for MsgCancel lookup.
func (s *muxSession) addStream(id uint64, st *stream) {
	s.streamsMu.Lock()
	s.streams[id] = st
	s.streamsMu.Unlock()
}

// endStream forgets a completed stream and cancels its context, so a
// kernel that kept it sees the call over.
func (s *muxSession) endStream(id uint64, st *stream) {
	s.streamsMu.Lock()
	delete(s.streams, id)
	s.streamsMu.Unlock()
	st.cancel(context.Canceled)
}

// cancelStream cancels one in-flight stream's context, if it is still
// running. Unknown streams (already completed, or never seen) are
// ignored — the cancel raced with the reply.
func (s *muxSession) cancelStream(id uint64) {
	s.streamsMu.Lock()
	st := s.streams[id]
	s.streamsMu.Unlock()
	if st != nil {
		st.cancel(context.Canceled)
	}
}

// serveLease negotiates one arena lease for this connection, inline (a
// grant is a map insert, never blocking). The ack echoes the request's
// StreamID so the client demultiplexes it like any reply. A denial's
// code tells "not configured" (errNoArena, not retryable: the client
// disables the lease path for this connection) from "no budget right now"
// (shm.ErrNoSpace, retryable: the client asks again on a later
// invocation).
func (s *muxSession) serveLease(msg *wire.Message) {
	var l *shm.Lease
	err := errNoArena
	if s.t.arena != nil {
		l, err = s.t.arena.AcquireFor(s, msg.Header.LeaseBytes)
	}
	if err != nil {
		s.reply(msg, wire.MsgLeaseAck, errHeader(err), nil)
		return
	}
	s.reply(msg, wire.MsgLeaseAck, wire.Header{LeaseID: l.ID(), LeaseBytes: l.Cap()}, nil)
}

// sendLeaseRevoke pushes a lease revocation notice to the client. It
// writes directly under the write lock rather than through the writer
// queue: revocations fire from Drain and breaker hooks, which may run
// while the session is tearing down, after the writer queue has closed.
func (s *muxSession) sendLeaseRevoke(id uint64) {
	if s.failed.Load() {
		return
	}
	s.wmu.Lock()
	err := wire.Write(s.conn, &wire.Message{
		Version: wire.VersionMux,
		Type:    wire.MsgLeaseRevoke,
		Header:  wire.Header{LeaseID: id},
	})
	s.wmu.Unlock()
	if err != nil {
		s.writeFailed(err)
	}
}

// errLeaseRevoked is answered to an invoke naming a lease that was
// revoked (drain, breaker-open, or disconnect). It maps to the wire
// protocol's LEASE_REVOKED code and is retryable: the client drops the
// stale lease and resends the same request in-band, invisibly to its
// caller.
var errLeaseRevoked = errors.New("core: arena lease revoked; resend in-band")

// errLeaseWindow is answered to an invoke whose payload length does not
// fit the leased window it names.
var errLeaseWindow = errors.New("core: payload length outside lease window")

// errNoArena denies a lease request on an endpoint without an arena.
var errNoArena = errors.New("core: out-of-band leases not configured")

// resolveLease maps a leased invoke onto its arena window, pinned for
// the invocation's lifetime so a concurrent revoke cannot recycle the
// slab under a running kernel. A lease that was revoked resolves to
// errLeaseRevoked — retryable, the client resends in-band — while an ID
// this connection never held (shm.ErrUnknownLease) or a length outside
// the window (errLeaseWindow) is the client's bug.
func (s *muxSession) resolveLease(msg *wire.Message) (*shm.Lease, error) {
	if s.t.arena == nil {
		return nil, shm.ErrUnknownLease
	}
	l, err := s.t.arena.Resolve(s, msg.Header.LeaseID)
	if errors.Is(err, shm.ErrRevoked) {
		return nil, errLeaseRevoked
	}
	if err != nil {
		return nil, err
	}
	if n := msg.Header.LeaseLen; n < 0 || n > l.Cap() {
		l.Release()
		return nil, fmt.Errorf("%w: lease %d holds %d bytes, payload claims %d",
			errLeaseWindow, l.ID(), l.Cap(), n)
	}
	return l, nil
}

// serveRegister handles a registration frame inline (registrations are
// cheap and rare; they do not occupy a stream slot).
func (s *muxSession) serveRegister(msg *wire.Message) {
	k, err := kernels.ByName(msg.Header.Kernel)
	if err != nil {
		// Not in the library: classify as UNKNOWN_KERNEL on the wire.
		s.sendErr(msg, fmt.Errorf("%w: %v", ErrUnknownKernel, err))
		return
	}
	if err := s.t.srv.Register(k); err != nil && !errors.Is(err, ErrAlreadyRegistered) {
		s.sendErr(msg, err)
		return
	}
	s.reply(msg, wire.MsgRegistered, wire.Header{Kernel: msg.Header.Kernel}, nil)
}

// serveControl handles a cluster control-plane frame inline (heartbeats
// are small, cheap, and must not queue behind invocation streams).
func (s *muxSession) serveControl(msg *wire.Message) {
	h := s.t.controlHandler()
	if h == nil {
		s.sendErr(msg, errors.New("cluster control plane not enabled"))
		return
	}
	resp, err := h(msg.Body)
	if err != nil {
		s.sendErr(msg, err)
		return
	}
	s.reply(msg, wire.MsgControlAck, wire.Header{}, resp)
}

// serveStats handles a stats frame inline.
func (s *muxSession) serveStats(msg *wire.Message) {
	stats, err := marshalStats(s.t.srv)
	if err != nil {
		s.sendErr(msg, err)
		return
	}
	s.reply(msg, wire.MsgStatsResult, wire.Header{Stats: stats}, nil)
}

// serveInvoke runs one invocation stream to completion on a stream
// worker, bounded by the session's stream semaphore and the server's
// admission control.
//
// The in-band body and the params map go back to the wire pools when the
// stream ends, whichever way it ends: the kernel was done with them when
// Server.Invoke returned (kernels.Request.Data, kernels.Request.Params).
// The exceptions are a reply body that shares the body's backing array
// and a reply whose values are the params map, which the writer may still
// be reading. The request message goes back to its pool too: every reply
// copied what it needed from it.
func (s *muxSession) serveInvoke(msg *wire.Message) {
	body, values := s.invokeStream(msg)
	if !sharesArray(body, msg.Body) {
		wire.Recycle(msg.Body)
	}
	if !sameMap(values, msg.Header.Params) {
		wire.RecycleParams(msg.Header.Params)
	}
	wire.Release(msg)
}

// invokeStream serves one invocation and returns the reply body and values
// it handed to the transport, nil when the stream ended without a result.
func (s *muxSession) invokeStream(msg *wire.Message) ([]byte, map[string]float64) {
	id := msg.Header.StreamID

	// Legacy (pre-tenant) peers leave Tenant empty; the server maps that
	// to the deterministic "default" tenant at admission.
	st := &stream{req: kernels.Request{Params: kernels.Params(msg.Header.Params), Tenant: msg.Header.Tenant}}
	req := &st.req
	var lease *shm.Lease
	switch {
	case msg.Header.LeaseID != 0:
		// Zero-copy out-of-band: the payload is already in the leased
		// arena window both endpoints map — only the handle crossed the
		// wire, and the serving path reads the window in place.
		l, err := s.resolveLease(msg)
		if err != nil {
			s.sendErr(msg, err)
			return nil, nil
		}
		defer l.Release()
		lease = l
		req.Data = l.Bytes()[:msg.Header.LeaseLen]
		s.t.srv.dpMet.oobInvocations.Inc()
		s.t.srv.dpMet.oobBytes.Add(uint64(msg.Header.LeaseLen))
	case len(msg.Body) > 0:
		req.Data = msg.Body
		s.t.srv.dpMet.inbandBytes.Add(uint64(len(msg.Body)))
	}

	if err := st.arm(msg.Header.DeadlineNanos); err != nil {
		s.t.srv.Logger().Warn("rejecting expired invocation",
			"kernel", msg.Header.Kernel, "remote", s.conn.RemoteAddr(), "stream", id, "err", err)
		s.sendErr(msg, err)
		return nil, nil
	}
	s.addStream(id, st)
	defer s.endStream(id, st)

	// The report lives on this worker's stack: Server.invoke keeps no
	// pointer to it, and the reply header copies out what it needs.
	var report Report
	resp, err := s.t.srv.invoke(st, msg.Header.Kernel, req, &report)
	if err != nil {
		if st.Err() != nil {
			// The stream was cancelled (deadline, CANCEL frame, or the
			// connection died): the reply is best-effort; sibling
			// streams on this connection are unaffected.
			s.t.srv.Logger().Info("invocation cancelled",
				"kernel", msg.Header.Kernel, "remote", s.conn.RemoteAddr(), "stream", id, "cause", st.Err())
		}
		s.sendErr(msg, err)
		return nil, nil
	}

	out := wire.Header{
		Kernel:          msg.Header.Kernel,
		Values:          resp.Values,
		ColdStart:       report.Cold,
		CachedColdStart: report.CachedCold,
		InvocationID:    report.InvocationID,
		DurationNanos:   int64(report.Total()),
	}
	// A scalar the header cannot carry (NaN, an infinity) must fail this
	// stream here: past this point an encode error belongs to the shared
	// connection's writer, which can only drop the frame or the socket.
	if err := wire.CheckEncodable(&wire.Message{Header: out}); err != nil {
		s.sendErr(msg, fmt.Errorf("kernel %q returned a result that cannot be sent: %w", msg.Header.Kernel, err))
		return nil, nil
	}
	body := resp.Data
	if lease != nil && len(resp.Data) > 0 && int64(len(resp.Data)) <= lease.Cap() {
		// The result rides back through the same leased window the
		// request arrived in: one copy into shared memory, no bytes on
		// the wire. The lease is still pinned (released after send), so a
		// concurrent revoke cannot recycle the slab before the client —
		// which holds its own pin — reads the result out.
		copy(lease.Bytes(), resp.Data)
		out.LeaseID = msg.Header.LeaseID
		out.LeaseResultLen = int64(len(resp.Data))
		body = nil
	}
	s.reply(msg, wire.MsgResult, out, body)
	return body, out.Values
}

// sharesArray reports whether a and b lie in one backing array. Distinct
// allocations never overlap, so overlapping capacity ranges mean the same
// array.
func sharesArray(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// sameMap reports whether a and b are the same non-nil map.
func sameMap(a, b map[string]float64) bool {
	if a == nil || b == nil {
		return false
	}
	return *(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}
