package shm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestArenaAcquireRoundsToSizeClass(t *testing.T) {
	p := NewArenaPool(1 << 20)
	l, err := p.Acquire(5000)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l.Cap() != 8<<10 {
		t.Errorf("Cap = %d, want %d (next power of two above 5000)", l.Cap(), 8<<10)
	}
	if got := int64(len(l.Bytes())); got != l.Cap() {
		t.Errorf("len(Bytes()) = %d, want %d", got, l.Cap())
	}
	small, err := p.Acquire(1)
	if err != nil {
		t.Fatalf("Acquire small: %v", err)
	}
	if small.Cap() != MinLeaseBytes {
		t.Errorf("small Cap = %d, want MinLeaseBytes %d", small.Cap(), MinLeaseBytes)
	}
}

func TestArenaBudgetAndRevokeReturnsBytes(t *testing.T) {
	p := NewArenaPool(16 << 10)
	a, err := p.Acquire(8 << 10)
	if err != nil {
		t.Fatalf("Acquire a: %v", err)
	}
	if _, err := p.Acquire(8 << 10); err != nil {
		t.Fatalf("Acquire b: %v", err)
	}
	// Budget is full: a third lease must be refused, not oversubscribed.
	if _, err := p.Acquire(8 << 10); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Acquire over budget: err = %v, want ErrNoSpace", err)
	}
	// Revoking returns the bytes: the same acquisition now succeeds and
	// reuses the parked slab without allocating a new one.
	if !p.Revoke(a.ID()) {
		t.Fatal("Revoke returned false for a live lease")
	}
	c, err := p.Acquire(8 << 10)
	if err != nil {
		t.Fatalf("Acquire after revoke: %v", err)
	}
	if &c.Bytes()[0] != &a.Bytes()[0] {
		t.Error("slab was not reused after revoke")
	}
	st := p.Stats()
	if st.Reuses != 1 {
		t.Errorf("Reuses = %d, want 1", st.Reuses)
	}
	if st.Granted != 16<<10 || st.Pooled != 0 {
		t.Errorf("Granted/Pooled = %d/%d, want %d/0", st.Granted, st.Pooled, 16<<10)
	}
}

func TestArenaRevokeDeferredWhileRetained(t *testing.T) {
	p := NewArenaPool(8 << 10)
	l, err := p.Acquire(8 << 10)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := l.Retain(); err != nil {
		t.Fatalf("Retain: %v", err)
	}
	p.Revoke(l.ID())
	// The slab must stay pinned: a new acquisition cannot steal it.
	if _, err := p.Acquire(8 << 10); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Acquire while pinned: err = %v, want ErrNoSpace", err)
	}
	if err := l.Retain(); !errors.Is(err, ErrRevoked) {
		t.Errorf("Retain after revoke: err = %v, want ErrRevoked", err)
	}
	l.Release()
	if _, err := p.Acquire(8 << 10); err != nil {
		t.Fatalf("Acquire after last release: %v", err)
	}
	if _, err := p.Resolve(nil, l.ID()); !errors.Is(err, ErrRevoked) {
		t.Errorf("Resolve of a revoked lease: err = %v, want ErrRevoked", err)
	}
	if _, err := p.Resolve(nil, 999); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("Resolve of a never-granted ID: err = %v, want ErrUnknownLease", err)
	}
}

func TestArenaRevokeAll(t *testing.T) {
	p := NewArenaPool(0)
	for i := 0; i < 3; i++ {
		if _, err := p.Acquire(4 << 10); err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
	}
	if all := p.RevokeAll(); len(all) != 3 {
		t.Fatalf("RevokeAll returned %d leases, want 3", len(all))
	}
	st := p.Stats()
	if st.Active != 0 || st.Granted != 0 || st.Revocations != 3 {
		t.Errorf("after RevokeAll: %+v", st)
	}
}

func TestArenaPooledSlabEviction(t *testing.T) {
	p := NewArenaPool(8 << 10)
	a, err := p.Acquire(8 << 10)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	p.Revoke(a.ID())
	// The whole budget is parked as an 8 KiB slab; a 4 KiB lease must
	// evict it rather than fail.
	if _, err := p.Acquire(4 << 10); err != nil {
		t.Fatalf("Acquire with pooled budget held: %v", err)
	}
}

func TestArenaConcurrentAcquireRevoke(t *testing.T) {
	p := NewArenaPool(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l, err := p.Acquire(4 << 10)
				if err != nil {
					continue
				}
				if err := l.Retain(); err == nil {
					copy(l.Bytes(), "payload")
					l.Release()
				}
				p.Revoke(l.ID())
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Active != 0 || st.Granted != 0 {
		t.Errorf("leaked leases: %+v", st)
	}
}

// TestLeaseStateMachine drives the lease machine with seeded operation
// sequences from several goroutines, one owner each, and checks the
// invariant table after every step: an ID is live, revoked, or never
// granted — to its owner a granted ID resolves to a pinned lease or
// ErrRevoked (and never comes back once revoked), to anyone else it is
// ErrUnknownLease while live — and the pool never exceeds its budget.
func TestLeaseStateMachine(t *testing.T) {
	const (
		owners   = 4
		steps    = 400
		capacity = 64 * MinLeaseBytes
	)
	p := NewArenaPool(capacity)
	type stranger struct{}
	var wg sync.WaitGroup
	for g := 0; g < owners; g++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1 + owner)))
			var (
				ids  []uint64            // every ID granted to this owner
				dead = map[uint64]bool{} // IDs this owner knows are revoked
				pins []*Lease
			)
			killAll := func() {
				for _, id := range ids {
					dead[id] = true
				}
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // grant
					l, err := p.AcquireFor(owner, 1+rng.Int63n(4*MinLeaseBytes))
					if err == nil {
						ids = append(ids, l.ID())
					} else if !errors.Is(err, ErrNoSpace) {
						t.Errorf("owner %d step %d: AcquireFor: %v", owner, step, err)
					}
				case op < 6 && len(ids) > 0: // resolve and keep the pin
					if l, err := p.Resolve(owner, ids[rng.Intn(len(ids))]); err == nil {
						pins = append(pins, l)
					}
				case op < 8 && len(pins) > 0: // release
					pins[len(pins)-1].Release()
					pins = pins[:len(pins)-1]
				case op == 8: // revoke-owner
					p.RevokeOwner(owner)
					killAll()
				case op == 9 && step%8 == 0: // revoke-all, rarer: it hits every owner
					for _, r := range p.RevokeAll() {
						if o, ok := r.Owner.(int); !ok || o < 0 || o >= owners {
							t.Errorf("RevokeAll named owner %v for lease %d", r.Owner, r.ID)
						}
					}
					killAll()
				}

				for _, id := range ids {
					l, err := p.Resolve(owner, id)
					switch {
					case err == nil && (dead[id] || l.ID() != id):
						t.Errorf("owner %d step %d: lease %d resolved to lease %d (revoked before: %v)",
							owner, step, id, l.ID(), dead[id])
						l.Release()
					case err == nil:
						l.Release()
					case errors.Is(err, ErrRevoked):
						dead[id] = true // another owner's revoke-all
					default:
						t.Errorf("owner %d step %d: own lease %d: %v", owner, step, id, err)
					}
					// To anyone else the ID is unknown while live; ErrRevoked
					// is right once it is, and another owner's revoke-all
					// may land before this owner learns of it.
					_, err = p.Resolve(stranger{}, id)
					if !errors.Is(err, ErrRevoked) && (dead[id] || !errors.Is(err, ErrUnknownLease)) {
						t.Errorf("owner %d step %d: stranger resolving lease %d (revoked before: %v): %v",
							owner, step, id, dead[id], err)
					}
				}
				for _, never := range []uint64{0, 1 << 62} {
					if _, err := p.Resolve(owner, never); !errors.Is(err, ErrUnknownLease) {
						t.Errorf("owner %d step %d: never-granted ID %d: %v, want ErrUnknownLease", owner, step, never, err)
					}
				}
				if st := p.Stats(); st.Granted+st.Pooled > capacity {
					t.Errorf("owner %d step %d: granted %d + pooled %d exceeds capacity %d",
						owner, step, st.Granted, st.Pooled, capacity)
				}
				if t.Failed() {
					break
				}
			}
			for _, l := range pins {
				l.Release()
			}
		}(g)
	}
	wg.Wait()

	p.RevokeAll()
	if st := p.Stats(); st.Granted != 0 || st.Active != 0 {
		t.Errorf("every lease revoked and every pin released, yet %+v", st)
	}
}

func TestSupported(t *testing.T) {
	ok, detail := Supported()
	if !ok || detail == "" {
		t.Errorf("Supported() = %v, %q; the simulated arena is always available", ok, detail)
	}
}
