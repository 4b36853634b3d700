package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kaas/internal/wire"
)

// maxCoalescedWrite caps how many request bytes the mux writer batches
// into one socket write before flushing.
const maxCoalescedWrite = 64 << 10

// VersionError reports a server that did not accept the multiplexed
// protocol: it acked an older version or rejected the hello outright.
// The client speaks nothing older, so the call fails without a retry.
type VersionError struct {
	// Negotiated is the highest protocol version the server offered.
	Negotiated uint8
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("client: server negotiated protocol version %d, need %d", e.Negotiated, wire.VersionMux)
}

// muxSlot holds one shared connection; the mutex serializes (re)dialing.
type muxSlot struct {
	mu   sync.Mutex
	conn *muxConn
}

// conn returns a live shared connection, dialing and handshaking one if
// the slot is empty or its connection died. fresh reports whether the
// connection was just dialed (a fresh connection gets no transparent
// replacement on failure).
func (c *Client) conn(ctx context.Context) (mc *muxConn, fresh bool, err error) {
	slot := &c.slots[c.next.Add(1)%uint64(len(c.slots))]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.conn != nil && !slot.conn.isDead() {
		return slot.conn, false, nil
	}
	mc, err = c.handshake(ctx)
	if err != nil {
		return nil, false, err
	}
	slot.conn = mc
	return mc, true, nil
}

// handshake dials a fresh connection and offers protocol version 2. Any
// answer but a MsgHelloAck at VersionMux closes the connection: a server
// that acks an older version or answers the hello with MsgError yields a
// VersionError.
func (c *Client) handshake(ctx context.Context) (*muxConn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}

	conn, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	hello := &wire.Message{Type: wire.MsgHello, Header: wire.Header{MuxVersion: wire.VersionMux}}
	if err := wire.Write(conn, hello); err != nil {
		conn.Close()
		if ctxErr := ctxCause(ctx, err); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, asConnError(err)
	}
	reply, err := wire.Read(conn)
	if err != nil {
		conn.Close()
		if ctxErr := ctxCause(ctx, err); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, asConnError(fmt.Errorf("client: read hello reply: %w", err))
	}
	conn.SetDeadline(time.Time{})

	if reply.Type == wire.MsgHelloAck && reply.Header.MuxVersion >= wire.VersionMux {
		return newMuxConn(c, conn), nil
	}
	conn.Close()
	switch reply.Type {
	case wire.MsgHelloAck:
		return nil, &VersionError{Negotiated: reply.Header.MuxVersion}
	case wire.MsgError:
		// A server older than the hello itself rejects it as an unknown
		// frame: it speaks version 1 only.
		return nil, &VersionError{Negotiated: wire.Version}
	}
	return nil, asConnError(fmt.Errorf("client: unexpected hello reply %s", reply.Type))
}

// muxConn is one shared multiplexed connection: a writer goroutine
// serializes (and coalesces) outgoing frames, a reader goroutine
// demultiplexes replies to waiting callers by StreamID, and per-stream
// cancellation sends a CANCEL frame instead of tearing the socket down.
type muxConn struct {
	c    *Client
	conn net.Conn

	// wmu guards socket writes. The transport is adaptive: a caller that
	// is alone on the connection (inflight <= 1) writes its frame inline
	// for minimum latency; with siblings in flight, frames go through the
	// writer goroutine, which coalesces the backlog into batched writes —
	// many frames per syscall — which is where multiplexing wins under
	// load.
	wmu      sync.Mutex
	inflight atomic.Int64
	writeCh  chan *wire.Message
	dead     chan struct{}

	failOnce sync.Once

	// leases caches this connection's granted arena windows for the
	// zero-copy out-of-band path (WithArena).
	leases *leasePool

	mu      sync.Mutex
	failErr error
	pending map[uint64]chan *wire.Message
	nextID  uint64
}

func newMuxConn(c *Client, conn net.Conn) *muxConn {
	m := &muxConn{
		c:       c,
		conn:    conn,
		writeCh: make(chan *wire.Message, 64),
		dead:    make(chan struct{}),
		leases:  newLeasePool(),
		pending: make(map[uint64]chan *wire.Message),
	}
	go m.readLoop()
	go m.writeLoop()
	return m
}

// isDead reports whether the connection has failed.
func (m *muxConn) isDead() bool {
	select {
	case <-m.dead:
		return true
	default:
		return false
	}
}

// fail marks the connection dead exactly once, waking every waiter and
// dropping the connection's arena-lease pins (the server revokes its
// side of each lease when it observes the disconnect).
func (m *muxConn) fail(err error) {
	m.failOnce.Do(func() {
		m.mu.Lock()
		m.failErr = asConnError(err)
		m.mu.Unlock()
		close(m.dead)
		m.conn.Close()
		m.leases.releaseAll()
	})
}

// failure returns the error that killed the connection.
func (m *muxConn) failure() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr != nil {
		return m.failErr
	}
	return &connError{err: errors.New("client: mux connection closed")}
}

// replyChPool recycles reply channels across calls. A channel may be
// recycled only after its single send was received (the reader sends at
// most once per stream, under the pending-map entry it deletes).
var replyChPool = sync.Pool{New: func() any { return make(chan *wire.Message, 1) }}

// register allocates a stream ID and its reply channel.
func (m *muxConn) register() (uint64, chan *wire.Message) {
	ch := replyChPool.Get().(chan *wire.Message)
	m.inflight.Add(1)
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.pending[id] = ch
	m.mu.Unlock()
	return id, ch
}

// deregister forgets a stream; late replies for it are dropped by the
// reader.
func (m *muxConn) deregister(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
	m.inflight.Add(-1)
}

// readLoop demultiplexes replies to waiting callers by StreamID.
// Replies for deregistered streams (cancelled calls) are dropped. A read
// failure kills the connection and wakes every waiter.
func (m *muxConn) readLoop() {
	br := bufio.NewReaderSize(m.conn, 32<<10)
	for {
		msg, err := wire.Read(br)
		if err != nil {
			m.fail(fmt.Errorf("client: read reply: %w", err))
			return
		}
		if msg.Type == wire.MsgLeaseRevoke {
			// Unsolicited server notice (drain, breaker-open): stop using
			// the window; the next payload goes in-band or over a fresh
			// lease.
			m.leases.revoked(msg.Header.LeaseID)
			continue
		}
		m.mu.Lock()
		ch := m.pending[msg.Header.StreamID]
		delete(m.pending, msg.Header.StreamID)
		m.mu.Unlock()
		if ch != nil {
			ch <- msg
		}
	}
}

// writeLoop drains frames enqueued by callers with sibling streams in
// flight, coalescing queued bursts into one write. A frame whose body
// wire.AppendSplit leaves in the caller's slice ends its batch: the small
// frames queued before it, its head and its body leave in that order in
// one vectored write. Every queued message is the writer's own (enqueue
// queues a copy), released as soon as it is encoded.
func (m *muxConn) writeLoop() {
	buf := make([]byte, 0, 16<<10)
	for {
		var msg *wire.Message
		select {
		case msg = <-m.writeCh:
		case <-m.dead:
			return
		}
		var body []byte
		var err error
		buf, body, err = wire.AppendSplit(buf[:0], msg)
		wire.Release(msg)
		// Coalesce the backlog into one write. When the queue momentarily
		// empties, yield once before flushing: callers blocked on the
		// scheduler get a chance to append their frames to this batch,
		// deepening it by several frames per syscall under load.
		yielded := false
	coalesce:
		for err == nil && body == nil && len(buf) < maxCoalescedWrite {
			select {
			case next := <-m.writeCh:
				buf, body, err = wire.AppendSplit(buf, next)
				wire.Release(next)
			default:
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue
				}
				break coalesce
			}
		}
		if err == nil {
			m.wmu.Lock()
			err = wire.WriteSplit(m.conn, buf, body)
			m.wmu.Unlock()
		}
		if err != nil {
			// Requests are pre-validated by CheckEncodable, so an encode
			// failure here, like a failed write, is the socket's and not
			// one caller's.
			m.fail(err)
			return
		}
	}
}

// enqueue hands one frame to the transport: inline on the socket when
// the caller is alone on the connection (lowest latency), otherwise
// through the coalescing writer (fewest syscalls). Reports whether the
// frame went through the writer queue. Either way msg itself is free once
// enqueue returns: the queue carries a pooled copy of the struct, which
// the writer releases once encoded. What the copy's fields point to (the
// body, the params map) the writer reads until the frame is encoded.
func (m *muxConn) enqueue(ctx context.Context, msg *wire.Message) (queued bool, err error) {
	if m.inflight.Load() <= 1 && m.wmu.TryLock() {
		werr := wire.Write(m.conn, msg)
		m.wmu.Unlock()
		if werr != nil {
			m.fail(werr)
			return false, m.failure()
		}
		return false, nil
	}
	cp := wire.NewMessage()
	*cp = *msg
	select {
	case m.writeCh <- cp:
		return true, nil
	case <-m.dead:
		wire.Release(cp)
		return false, m.failure()
	case <-ctx.Done():
		wire.Release(cp)
		return false, ctx.Err()
	}
}

// roundTrip sends one request over the shared connection and waits for
// its demultiplexed reply. Context cancellation aborts only this stream:
// a best-effort CANCEL frame tells the server to stop the kernel, and
// sibling streams on the connection are untouched.
func (m *muxConn) roundTrip(ctx context.Context, msg *wire.Message) (*wire.Message, error) {
	id, ch := m.register()
	msg.Version = wire.VersionMux
	msg.Header.StreamID = id

	// An unencodable request (non-finite params) must fail this call
	// only, never the shared socket — and the check is a map walk, not
	// the full header encode FrameSize would cost.
	if err := wire.CheckEncodable(msg); err != nil {
		m.deregister(id)
		return nil, err
	}
	if m.c.link != nil {
		if size, err := wire.FrameSize(msg); err == nil {
			m.c.link.Transfer(size)
		}
	}

	queued, err := m.enqueue(ctx, msg)
	if err != nil {
		m.deregister(id)
		return nil, err
	}

	select {
	case reply := <-ch:
		replyChPool.Put(ch)
		m.inflight.Add(-1)
		if m.c.link != nil {
			if size, err := wire.FrameSize(reply); err == nil {
				m.c.link.Transfer(size)
			}
		}
		return reply, nil
	case <-m.dead:
		// The reply may have raced with the connection dying.
		select {
		case reply := <-ch:
			replyChPool.Put(ch)
			m.inflight.Add(-1)
			return reply, nil
		default:
		}
		m.deregister(id)
		return nil, m.failure()
	case <-ctx.Done():
		m.deregister(id)
		// Best-effort per-stream cancel: the server stops the kernel
		// and its (discarded) error reply frees the stream. If the
		// writer queue is full the wire deadline still bounds the
		// server side.
		cancel := &wire.Message{Version: wire.VersionMux, Type: wire.MsgCancel, Header: wire.Header{StreamID: id}}
		if !queued && m.wmu.TryLock() {
			// The invoke is already on the socket, so an inline cancel
			// cannot overtake it.
			err := wire.Write(m.conn, cancel)
			m.wmu.Unlock()
			if err != nil {
				m.fail(err)
			}
		} else {
			// A queued invoke means the cancel must follow it through
			// the writer queue or the server would see the cancel first
			// and ignore it.
			select {
			case m.writeCh <- cancel:
			default:
			}
		}
		return nil, ctx.Err()
	}
}
