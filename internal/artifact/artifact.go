// Package artifact implements the content-addressed compiled-kernel
// cache behind the platform's cold-start path. Compiling (JIT'ing,
// transpiling, or place-and-routing) a kernel for a device kind is the
// dominant first-invocation cost on every accelerator the paper models;
// the cache makes that cost a one-time event per (kernel, device-kind)
// pair on one host. Entries are addressed by a digest of the kernel's
// identity and compile signature and bounded by a byte budget with LRU
// eviction.
package artifact

import (
	"container/list"
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// Key is the content address of a compiled artifact: a 64-bit FNV-1a
// digest, hex-encoded, over the kernel's identity and compile signature.
type Key string

// KeyFor digests the given identity parts into a cache key. Parts are
// joined with an unlikely separator so ("ab","c") and ("a","bc") hash
// differently.
func KeyFor(parts ...string) Key {
	h := fnv.New64a()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte{0x1f}) // unit separator
		}
		h.Write([]byte(p))
	}
	const hexdigits = "0123456789abcdef"
	sum := h.Sum64()
	var b strings.Builder
	for shift := 60; shift >= 0; shift -= 4 {
		b.WriteByte(hexdigits[(sum>>uint(shift))&0xf])
	}
	return Key(b.String())
}

// Artifact is one compiled kernel image: the key it is addressed by,
// human-readable provenance, its size against the cache budget, and the
// modeled compile cost a miss would pay.
type Artifact struct {
	Key Key
	// Kernel and Kind record provenance (kernel name, device kind).
	Kernel string
	Kind   string
	// Size is the artifact's footprint in bytes.
	Size int64
	// CompileCost is the modeled JIT duration this artifact saves.
	CompileCost time.Duration
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Entries     int    `json:"entries"`
	UsedBytes   int64  `json:"used_bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
}

// Cache is a concurrency-safe LRU artifact cache with a byte budget.
// Lookup and Store implement the hit/miss path. The zero budget means
// "unbounded".
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used; values are *Artifact
	index  map[Key]*list.Element

	hits, misses, evictions uint64
}

// NewCache creates a cache bounded to budget bytes (0 = unbounded).
func NewCache(budget int64) *Cache {
	return &Cache{
		budget: budget,
		order:  list.New(),
		index:  make(map[Key]*list.Element),
	}
}

// Lookup returns the cached artifact for key, or nil on a miss, and
// updates recency and hit/miss counters.
func (c *Cache) Lookup(key Key) *Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*Artifact)
}

// Store inserts (or refreshes) an artifact compiled locally and evicts
// LRU entries until the budget holds. Artifacts larger than the whole
// budget are not cached.
func (c *Cache) Store(a *Artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[a.Key]; ok {
		c.used += a.Size - el.Value.(*Artifact).Size
		el.Value = a
		c.order.MoveToFront(el)
		c.evictOverBudgetLocked()
		return
	}
	if c.budget > 0 && a.Size > c.budget {
		return
	}
	c.index[a.Key] = c.order.PushFront(a)
	c.used += a.Size
	c.evictOverBudgetLocked()
}

func (c *Cache) evictOverBudgetLocked() {
	for c.budget > 0 && c.used > c.budget {
		el := c.order.Back()
		if el == nil {
			return
		}
		victim := el.Value.(*Artifact)
		c.order.Remove(el)
		delete(c.index, victim.Key)
		c.used -= victim.Size
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Entries:     len(c.index),
		UsedBytes:   c.used,
		BudgetBytes: c.budget,
	}
}
