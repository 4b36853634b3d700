// Out-of-band transfer is the ArenaPool in this file. No product code
// uses Registry (shm.go); it is kept, comment and all, until the
// benchmark drops its shm.registry_create_get_delete_ns rung.
package shm

import (
	"errors"
	"fmt"
	"sync"
)

// MinLeaseBytes is the smallest arena window granted: requests are
// rounded up to a power-of-two size class no smaller than this, so
// slabs returned to the pool are reusable across payload sizes.
const MinLeaseBytes = 4 << 10

// ErrRevoked indicates the lease was revoked before the operation.
var ErrRevoked = errors.New("shm: lease revoked")

// ErrUnknownLease indicates a lease ID that was never granted, or that is
// live under a different owner than the one presenting it.
var ErrUnknownLease = errors.New("shm: unknown lease")

// Supported reports whether this host can back tensor arenas, with a
// human-readable detail. The simulated shared memory is in-process and
// always available; the probe exists so callers (kaas.New) have a
// uniform "fail cleanly when the host lacks shm" seam that a real
// mmap-backed implementation would fail on.
func Supported() (bool, string) {
	return true, "in-process simulated shared memory"
}

// ArenaPool is a byte-budgeted pool of tensor arena slabs handed out as
// leases: a client negotiates a lease once, then moves payloads through
// the leased window by handle with no per-invocation allocation. Slabs
// are power-of-two size classes; a revoked or released lease returns
// its slab to a free list, so steady-state traffic allocates nothing.
// It models the process-shared arena mapping both endpoints of a
// connection see (rFaaS-style leased remote-memory windows).
//
// Revocation is refcount-safe: Revoke marks the lease dead immediately
// (new Retains fail) but the slab rejoins the free list only when
// in-flight users release it, so a server can revoke mid-invocation
// without yanking memory out from under a running kernel.
//
// The pool is the single record of a lease's owner and state, all under
// mu. IDs are sequential and leave the live map only through revocation,
// so every ID is in exactly one of three states: live (in leases),
// revoked (0 < id <= seq and not live), or never granted.
type ArenaPool struct {
	mu       sync.Mutex
	capacity int64
	granted  int64              // bytes held by live leases
	pooled   int64              // bytes parked on the free lists
	free     map[int64][][]byte // size class -> free slabs
	leases   map[uint64]*Lease  // live leases
	seq      uint64             // last ID granted

	grants      uint64
	reuses      uint64
	revocations uint64
}

// NewArenaPool creates a pool with the given total byte budget
// (0 means unlimited).
func NewArenaPool(capacity int64) *ArenaPool {
	return &ArenaPool{
		capacity: capacity,
		free:     make(map[int64][][]byte),
		leases:   make(map[uint64]*Lease),
	}
}

// Lease is a granted window into an arena slab.
type Lease struct {
	id    uint64
	pool  *ArenaPool
	buf   []byte
	owner any // who may Resolve it; fixed at grant

	// guarded by pool.mu
	refs     int
	isDead   bool
	returned bool
}

// classFor rounds n up to the pool's power-of-two size class.
func classFor(n int64) int64 {
	c := int64(MinLeaseBytes)
	for c < n {
		c <<= 1
	}
	return c
}

// Acquire grants an ownerless lease; see AcquireFor.
func (p *ArenaPool) Acquire(bytes int64) (*Lease, error) {
	return p.AcquireFor(nil, bytes)
}

// AcquireFor grants owner a lease over a window of at least bytes
// capacity, reusing a pooled slab of the same size class when one is
// free. The owner (any comparable value; a server passes the connection)
// is who Resolve answers and RevokeOwner sweeps.
func (p *ArenaPool) AcquireFor(owner any, bytes int64) (*Lease, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("shm: lease size %d must be positive", bytes)
	}
	class := classFor(bytes)
	p.mu.Lock()
	defer p.mu.Unlock()

	var buf []byte
	if slabs := p.free[class]; len(slabs) > 0 {
		buf = slabs[len(slabs)-1]
		p.free[class] = slabs[:len(slabs)-1]
		p.pooled -= class
		p.reuses++
	} else {
		if p.capacity > 0 && p.granted+p.pooled+class > p.capacity {
			// Evict idle slabs of other classes before refusing.
			p.evictPooledLocked(p.granted + p.pooled + class - p.capacity)
		}
		if p.capacity > 0 && p.granted+p.pooled+class > p.capacity {
			return nil, fmt.Errorf("%w: lease wants %d, granted %d of %d", ErrNoSpace, class, p.granted, p.capacity)
		}
		buf = make([]byte, class)
	}
	p.seq++
	l := &Lease{id: p.seq, pool: p, buf: buf, owner: owner}
	p.leases[l.id] = l
	p.granted += class
	p.grants++
	return l, nil
}

// evictPooledLocked drops free slabs until at least need bytes of
// budget are recovered or the free lists are empty.
func (p *ArenaPool) evictPooledLocked(need int64) {
	for class, slabs := range p.free {
		for len(slabs) > 0 && need > 0 {
			slabs = slabs[:len(slabs)-1]
			p.pooled -= class
			need -= class
		}
		p.free[class] = slabs
		if need <= 0 {
			return
		}
	}
}

// Get returns the live lease with the given ID.
func (p *ArenaPool) Get(id uint64) (*Lease, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.leases[id]
	return l, ok
}

// Resolve maps an ID presented by owner onto its lease, pinned as by
// Retain so a concurrent revoke cannot recycle the slab under the
// caller; the caller must Release it. The state is decided under the
// pool's one lock: a revoked ID is ErrRevoked, and an ID never granted,
// or live under another owner, is ErrUnknownLease.
func (p *ArenaPool) Resolve(owner any, id uint64) (*Lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, live := p.leases[id]
	switch {
	case live && l.owner == owner:
		l.refs++
		return l, nil
	case !live && 0 < id && id <= p.seq:
		return nil, ErrRevoked
	default:
		return nil, ErrUnknownLease
	}
}

// Revoke withdraws a lease. The budget is credited as soon as no
// in-flight user holds a reference; the slab then rejoins the free
// list. Revoking an unknown ID is a no-op returning false.
func (p *ArenaPool) Revoke(id uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.leases[id]
	if ok {
		p.revokeLocked(l)
	}
	return ok
}

// RevokeOwner withdraws every lease granted to owner (a connection that
// closed) and reports how many there were.
func (p *ArenaPool) RevokeOwner(owner any) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.leases {
		if l.owner == owner {
			p.revokeLocked(l)
			n++
		}
	}
	return n
}

// Revoked names one lease RevokeAll withdrew and whom it was granted to.
type Revoked struct {
	Owner any
	ID    uint64
}

// RevokeAll withdraws every live lease, used on drain and breaker-open.
// It returns what it revoked so the caller can notify each owner after
// the pool's lock is dropped.
func (p *ArenaPool) RevokeAll() []Revoked {
	p.mu.Lock()
	defer p.mu.Unlock()
	all := make([]Revoked, 0, len(p.leases))
	for _, l := range p.leases {
		all = append(all, Revoked{Owner: l.owner, ID: l.id})
		p.revokeLocked(l)
	}
	return all
}

// revokeLocked moves a live lease to revoked: unlinking it is what marks
// the ID revoked, so no reader can see it in neither state.
func (p *ArenaPool) revokeLocked(l *Lease) {
	delete(p.leases, l.id)
	p.revocations++
	l.isDead = true
	if l.refs == 0 {
		p.returnSlabLocked(l)
	}
}

// returnSlabLocked credits the lease's bytes back to the budget and
// parks its slab for reuse.
func (p *ArenaPool) returnSlabLocked(l *Lease) {
	if l.returned {
		return
	}
	l.returned = true
	class := int64(cap(l.buf))
	p.granted -= class
	p.free[class] = append(p.free[class], l.buf[:cap(l.buf)])
	p.pooled += class
}

// ID returns the lease's pool-unique identifier.
func (l *Lease) ID() uint64 { return l.id }

// Cap returns the window capacity in bytes.
func (l *Lease) Cap() int64 { return int64(cap(l.buf)) }

// Bytes returns the leased window. Both endpoints of a connection see
// the same backing array — that sharing is the zero-copy transfer.
func (l *Lease) Bytes() []byte { return l.buf[:cap(l.buf)] }

// Retain pins the lease for an in-flight use so a concurrent Revoke
// cannot recycle the slab mid-kernel. It fails once the lease is dead.
func (l *Lease) Retain() error {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	if l.isDead {
		return ErrRevoked
	}
	l.refs++
	return nil
}

// Release drops a Retain pin. If the lease was revoked while pinned,
// the last Release returns the slab to the pool.
func (l *Lease) Release() {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	if l.refs > 0 {
		l.refs--
	}
	if l.isDead && l.refs == 0 {
		l.pool.returnSlabLocked(l)
	}
}

// ArenaStats is a snapshot of a pool's accounting.
type ArenaStats struct {
	Capacity    int64  // byte budget (0 = unlimited)
	Granted     int64  // bytes held by live leases
	Pooled      int64  // bytes parked on free lists
	Active      int    // live leases
	Grants      uint64 // leases granted since creation
	Reuses      uint64 // grants served from a pooled slab (no allocation)
	Revocations uint64 // leases revoked
}

// Stats returns the pool's current accounting snapshot.
func (p *ArenaPool) Stats() ArenaStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ArenaStats{
		Capacity:    p.capacity,
		Granted:     p.granted,
		Pooled:      p.pooled,
		Active:      len(p.leases),
		Grants:      p.grants,
		Reuses:      p.reuses,
		Revocations: p.revocations,
	}
}
