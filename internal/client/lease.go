package client

import (
	"context"
	"sync"

	"kaas/internal/shm"
	"kaas/internal/wire"
)

// clientLease is one granted arena window held by a mux connection. The
// client keeps its own Retain pin on the lease from grant until discard,
// so a server-side revocation cannot recycle the slab while a result the
// client has not read yet sits in the window.
type clientLease struct {
	l      *shm.Lease
	doomed bool // revoked while checked out; discarded on checkin
}

// leasePool is a mux connection's cache of granted arena leases. Leases
// are connection-scoped and reused across invocations: after the one
// negotiation round trip, every payload moves by handle with no
// per-invocation allocation. denied flips permanently when the server
// reports it has no arena configured.
type leasePool struct {
	mu     sync.Mutex
	denied bool
	free   []*clientLease
	inuse  map[uint64]*clientLease
}

func newLeasePool() *leasePool {
	return &leasePool{inuse: make(map[uint64]*clientLease)}
}

// checkout takes a free lease with at least need bytes of window, or nil
// when none fits (the caller negotiates a fresh one).
func (p *leasePool) checkout(need int64) *clientLease {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, cl := range p.free {
		if cl.l.Cap() >= need {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.inuse[cl.l.ID()] = cl
			return cl
		}
	}
	return nil
}

// use records a freshly negotiated lease as checked out.
func (p *leasePool) use(cl *clientLease) {
	p.mu.Lock()
	p.inuse[cl.l.ID()] = cl
	p.mu.Unlock()
}

// checkin returns a lease to the free list — unless it was revoked while
// in use, in which case its pin is dropped and the slab goes back to the
// arena.
func (p *leasePool) checkin(cl *clientLease) {
	p.mu.Lock()
	delete(p.inuse, cl.l.ID())
	if cl.doomed {
		p.mu.Unlock()
		cl.l.Release()
		return
	}
	p.free = append(p.free, cl)
	p.mu.Unlock()
}

// discard drops a lease for good: the server reported it stale, or the
// call that held it was abandoned.
func (p *leasePool) discard(cl *clientLease) {
	p.mu.Lock()
	delete(p.inuse, cl.l.ID())
	cl.doomed = true
	p.mu.Unlock()
	cl.l.Release()
}

// revoked handles a MsgLeaseRevoke notice: a free lease is dropped
// immediately; a checked-out lease is marked so checkin drops it.
func (p *leasePool) revoked(id uint64) {
	p.mu.Lock()
	for i, cl := range p.free {
		if cl.l.ID() == id {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.mu.Unlock()
			cl.l.Release()
			return
		}
	}
	if cl := p.inuse[id]; cl != nil {
		cl.doomed = true
	}
	p.mu.Unlock()
}

// deny permanently disables the lease path for this connection.
func (p *leasePool) deny() {
	p.mu.Lock()
	p.denied = true
	p.mu.Unlock()
}

// isDenied reports whether the server refused lease support outright.
func (p *leasePool) isDenied() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.denied
}

// releaseAll drops every pin when the connection dies. Checked-out
// leases are marked doomed; their in-flight user's checkin releases them.
func (p *leasePool) releaseAll() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	for _, cl := range p.inuse {
		cl.doomed = true
	}
	p.mu.Unlock()
	for _, cl := range free {
		cl.l.Release()
	}
}

// send routes one request over the connection, taking the zero-copy
// leased path when the out-of-band arena is configured and the request
// carries an in-band payload. Anything the lease path cannot serve — no
// arena on the server, budget full, lease revoked mid-flight — falls back
// to the plain in-band round trip transparently.
func (m *muxConn) send(ctx context.Context, msg *wire.Message) (*wire.Message, error) {
	if m.c.arena != nil && msg.Type == wire.MsgInvoke && len(msg.Body) > 0 {
		if reply, used, err := m.invokeLeased(ctx, msg); used {
			return reply, err
		}
	}
	return m.roundTrip(ctx, msg)
}

// invokeLeased attempts the zero-copy out-of-band path for one invoke:
// check out (or negotiate) a lease, copy the payload into the shared
// window, and send only the handle. used=false means the caller should
// fall back to the plain in-band round trip — the server has no arena,
// the budget was full, or the lease was revoked mid-flight; never an
// error the caller sees.
func (m *muxConn) invokeLeased(ctx context.Context, msg *wire.Message) (reply *wire.Message, used bool, err error) {
	need := int64(len(msg.Body))
	cl := m.leases.checkout(need)
	if cl == nil {
		cl = m.negotiateLease(ctx, need)
		if cl == nil {
			return nil, false, nil
		}
	}

	// The leased frame is a pooled copy: msg keeps its body for an
	// in-band resend.
	n := copy(cl.l.Bytes(), msg.Body)
	lm := wire.NewMessage()
	*lm = *msg
	lm.Body = nil
	lm.Header.LeaseID = cl.l.ID()
	lm.Header.LeaseLen = int64(n)

	reply, err = m.roundTrip(ctx, lm)
	wire.Release(lm)
	if err != nil {
		if ctx.Err() != nil {
			// The call was abandoned, and its frame may have reached the
			// server: a kernel may be reading the window now, or writing
			// its result there later. The window is never reused; its
			// budget returns when the connection closes.
			m.leases.discard(cl)
		} else {
			// Not sent (unencodable), or the connection died and doomed
			// the lease.
			m.leases.checkin(cl)
		}
		return nil, true, err
	}
	if reply.Type == wire.MsgError && reply.Header.Code == wire.CodeLeaseRevoked {
		// The server withdrew the lease (drain, breaker-open) between our
		// checkout and its read: drop it and resend in-band, invisibly to
		// the caller.
		m.leases.discard(cl)
		return nil, false, nil
	}
	if rl := reply.Header.LeaseResultLen; rl > 0 && reply.Header.LeaseID == cl.l.ID() && rl <= cl.l.Cap() {
		// The result came back through the same window; copy it out
		// before the lease returns to the pool and the window is reused.
		data := make([]byte, rl)
		copy(data, cl.l.Bytes()[:rl])
		reply.Body = data
		reply.Header.LeaseResultLen = 0
	}
	m.leases.checkin(cl)
	return reply, true, nil
}

// negotiateLease asks the server for a fresh arena lease, returning nil
// on any denial (the invoke falls back to in-band transfer). A denial
// whose code is not retryable — "not configured", or a server old enough
// to answer MsgLease with an unexpected-type error — disables the lease
// path for this connection permanently.
func (m *muxConn) negotiateLease(ctx context.Context, need int64) *clientLease {
	if m.leases.isDenied() {
		return nil
	}
	ack, err := m.roundTrip(ctx, &wire.Message{Type: wire.MsgLease, Header: wire.Header{LeaseBytes: need}})
	if err != nil {
		return nil
	}
	if ack.Type != wire.MsgLeaseAck || ack.Header.LeaseID == 0 {
		if !wire.Retryable(ack.Header.Code) {
			m.leases.deny()
		}
		return nil
	}
	l, ok := m.c.arena.Get(ack.Header.LeaseID)
	if !ok {
		return nil // revoked before the ack arrived
	}
	if l.Retain() != nil {
		return nil
	}
	cl := &clientLease{l: l}
	m.leases.use(cl)
	return cl
}
