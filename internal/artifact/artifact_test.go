package artifact

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func art(name string, size int64) *Artifact {
	return &Artifact{
		Key:         KeyFor(name, "GPU"),
		Kernel:      name,
		Kind:        "GPU",
		Size:        size,
		CompileCost: time.Second,
	}
}

func TestKeyForDistinguishesParts(t *testing.T) {
	if KeyFor("ab", "c") == KeyFor("a", "bc") {
		t.Fatal("KeyFor collides across part boundaries")
	}
	if KeyFor("mci", "GPU") != KeyFor("mci", "GPU") {
		t.Fatal("KeyFor is not deterministic")
	}
	if len(KeyFor("x")) != 16 {
		t.Fatalf("key length = %d, want 16 hex digits", len(KeyFor("x")))
	}
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(100)
	a := art("a", 40)
	if got := c.Lookup(a.Key); got != nil {
		t.Fatalf("unexpected hit before store: %+v", got)
	}
	c.Store(a)
	if got := c.Lookup(a.Key); got == nil || got.Kernel != "a" {
		t.Fatalf("expected hit for %q, got %+v", a.Key, got)
	}
	// Fill to budget, then overflow: the least recently used entry goes.
	b := art("b", 40)
	c.Store(b)
	c.Lookup(a.Key) // refresh a; b is now LRU
	c.Store(art("c", 40))
	if c.Lookup(b.Key) != nil {
		t.Fatal("LRU entry b survived eviction")
	}
	if c.Lookup(a.Key) == nil {
		t.Fatal("recently used entry a was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.UsedBytes != 80 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 80 used bytes, 2 entries", st)
	}
}

func TestCacheRejectsOversizedArtifact(t *testing.T) {
	c := NewCache(10)
	c.Store(art("huge", 11))
	if got := c.Stats(); got.Entries != 0 || got.UsedBytes != 0 {
		t.Fatalf("oversized artifact was cached: %+v", got)
	}
}

// TestCacheEvictionChurn drives a working set larger than the byte
// budget through the cache: the cache must stay within budget, keep
// serving hits for the hot tail, and never lose accounting consistency.
func TestCacheEvictionChurn(t *testing.T) {
	const budget = 1000
	c := NewCache(budget)
	// 20 artifacts of 150 bytes = 3000 bytes working set, 3x the budget.
	keys := make([]Key, 20)
	for i := range keys {
		a := art(fmt.Sprintf("k%02d", i), 150)
		keys[i] = a.Key
		c.Store(a)
	}
	for round := 0; round < 50; round++ {
		for i, k := range keys {
			if c.Lookup(k) == nil {
				c.Store(art(fmt.Sprintf("k%02d", i), 150))
			}
			// The artifact just stored (or just hit) must be resident: a
			// churning cache may evict the cold tail but never the entry
			// it was asked for last.
			if c.Lookup(k) == nil {
				t.Fatalf("round %d: just-stored artifact %q already evicted", round, k)
			}
			if used := c.Stats().UsedBytes; used > budget {
				t.Fatalf("round %d: used %d bytes > budget %d", round, used, budget)
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("churn produced no evictions despite working set 3x budget")
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("churn expects both hits and misses, got %+v", st)
	}
	if st.Entries != 6 { // floor(1000/150)
		t.Fatalf("entries = %d, want 6 resident at 150B each under a 1000B budget", st.Entries)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	a := NewCache(500)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("k%d", (g+i)%10)
				k := KeyFor(name, "GPU")
				if a.Lookup(k) == nil {
					a.Store(art(name, 60))
				}
			}
		}(g)
	}
	wg.Wait()
	if st := a.Stats(); st.UsedBytes > 500 {
		t.Fatalf("budget exceeded under concurrency: %+v", st)
	}
}
