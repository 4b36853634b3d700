package client

import (
	"sync"
	"sync/atomic"
)

// RetryBudget is a cross-invocation token bucket that bounds the total
// volume of retries a set of callers sharing it may generate; a cluster
// router (cplane.Router) charges its cross-host re-dispatches to one.
// The per-invocation RetryPolicy spaces retries out in time; the budget
// bounds them in aggregate, which is what matters when a node dies:
// without it, every caller's policy fires in lockstep and the survivors
// absorb a synchronized retry storm on top of the failed node's
// displaced load.
//
// The math follows the classic retry-throttling scheme: the bucket
// starts full at Capacity tokens, every retry (or cross-host
// re-dispatch) spends one token, and every success credits Ratio tokens
// back, capped at Capacity. In steady state a success rate of s and
// failure rate f sustain retries only while f <= s*Ratio — during a
// correlated outage the bucket drains in about Capacity retries and
// further retries are skipped until successes refill it. There is no
// time-based refill, so behavior is deterministic for a deterministic
// workload.
//
// The zero value is not usable; construct with NewRetryBudget. A single
// budget is safe for concurrent use and is designed to be shared across
// callers.
type RetryBudget struct {
	mu       sync.Mutex
	capacity float64
	ratio    float64
	tokens   float64

	spent     atomic.Uint64
	exhausted atomic.Uint64
}

// Default retry-budget parameters: enough tokens to ride out a burst of
// transient failures, refilled at one token per ten successes.
const (
	DefaultRetryBudgetCapacity = 10
	DefaultRetryBudgetRatio    = 0.1
)

// NewRetryBudget returns a full bucket with the given capacity and
// per-success refill ratio. Non-positive values take the defaults.
func NewRetryBudget(capacity, ratio float64) *RetryBudget {
	if capacity <= 0 {
		capacity = DefaultRetryBudgetCapacity
	}
	if ratio <= 0 {
		ratio = DefaultRetryBudgetRatio
	}
	return &RetryBudget{capacity: capacity, ratio: ratio, tokens: capacity}
}

// Spend takes one token for a retry. When the bucket is empty it
// records the exhaustion and returns false: the caller must give up
// with its last real error instead of retrying.
func (b *RetryBudget) Spend() bool {
	b.mu.Lock()
	if b.tokens < 1 {
		b.mu.Unlock()
		b.exhausted.Add(1)
		return false
	}
	b.tokens--
	b.mu.Unlock()
	b.spent.Add(1)
	return true
}

// Credit returns Ratio tokens to the bucket after a success, capped at
// capacity.
func (b *RetryBudget) Credit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.capacity {
		b.tokens = b.capacity
	}
	b.mu.Unlock()
}

// Tokens returns the current token count.
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// Spent counts retries the budget paid for.
func (b *RetryBudget) Spent() uint64 { return b.spent.Load() }

// Exhausted counts retries skipped because the bucket was empty.
func (b *RetryBudget) Exhausted() uint64 { return b.exhausted.Load() }
