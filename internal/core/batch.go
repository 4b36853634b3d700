package core

import (
	"context"
	"sync"
	"time"

	"kaas/internal/metrics"
	"kaas/internal/vclock"
)

// batchExecer dispatches a coalesced batch of modeled work in one device
// launch. *accel.Context implements it; batcher tests substitute fakes.
type batchExecer interface {
	ExecBatch(ctx context.Context, works []float64) (time.Duration, error)
}

// batchKey identifies one coalescing bucket: invocations batch together
// only when they target the same kernel on the same device, so a batch
// structurally can never mix kernels (or span devices).
type batchKey struct {
	device string
	kernel string
}

// batchSizeBuckets are the batch-size histogram buckets exported as
// kaas_batch_size_total{size=...}.
var batchSizeBuckets = []string{"1", "2", "3-4", "5-8", ">8"}

// sizeBucket maps a dispatched batch size onto its histogram bucket.
func sizeBucket(n int) string {
	switch {
	case n <= 1:
		return "1"
	case n == 2:
		return "2"
	case n <= 4:
		return "3-4"
	case n <= 8:
		return "5-8"
	default:
		return ">8"
	}
}

// batcher coalesces same-kernel invocations that arrive within a modeled
// time window (or up to a size cap, whichever comes first) into a single
// device dispatch: the batch pays the device's launch overhead once
// instead of once per invocation, which is where server-side
// micro-batching wins. Each member still receives its own demultiplexed
// result — the batch is a dispatch optimization, invisible to callers
// except through latency.
//
// Fairness composition: batching runs after admission, so the weighted
// fair queue and the per-tenant in-flight caps have already bounded how
// many of any tenant's invocations can be in flight — and therefore how
// much of any batch one tenant can occupy. The batcher adds no bypass
// around those grants.
type batcher struct {
	clock   vclock.Clock
	window  time.Duration
	max     int
	baseCtx context.Context // detaches dispatch from member contexts

	mu      sync.Mutex
	pending map[batchKey]*pendingBatch

	dispatchC *metrics.Counter // device dispatches issued
	batchedC  *metrics.Counter // invocations carried by those dispatches
	sizes     map[string]*metrics.Counter
}

// newBatcher creates a batcher dispatching after window (modeled time)
// or when a batch reaches max members.
func newBatcher(clock vclock.Clock, window time.Duration, max int, baseCtx context.Context, reg *metrics.Registry) *batcher {
	b := &batcher{
		clock:     clock,
		window:    window,
		max:       max,
		baseCtx:   baseCtx,
		pending:   make(map[batchKey]*pendingBatch),
		dispatchC: reg.Counter(metricBatchDispatches),
		batchedC:  reg.Counter(metricBatchedInvocations),
		sizes:     make(map[string]*metrics.Counter, len(batchSizeBuckets)),
	}
	for _, bucket := range batchSizeBuckets {
		b.sizes[bucket] = reg.Counter(metricBatchSize, "size", bucket)
	}
	return b
}

// pendingBatch is one forming batch. fired means it left the pending map
// (no new joiners); dispatched means the member snapshot was taken, after
// which members can no longer withdraw — their work is on the device.
type pendingBatch struct {
	key        batchKey
	ex         batchExecer
	members    []*batchMember
	fired      bool
	dispatched bool
	fire       chan struct{} // closed (once, under batcher.mu) to wake the leader
}

// batchMember is one invocation waiting in a batch.
type batchMember struct {
	work float64
	gone bool // withdrew (context cancelled) before dispatch
	done chan batchResult
}

// batchResult is the dispatch outcome delivered to each member. Every
// member observes the full batch duration: in the model all members
// complete when the coalesced launch does.
type batchResult struct {
	d   time.Duration
	err error
}

// exec joins (or opens) the batch for key and blocks until the batch
// dispatches or ctx is cancelled. The first member's execer performs the
// eventual dispatch; a cancelled member withdraws if the batch has not
// dispatched yet, and otherwise returns its context error while the
// batch — detached onto the server's base context — continues for its
// siblings.
func (b *batcher) exec(ctx context.Context, key batchKey, ex batchExecer, work float64) (time.Duration, error) {
	m := &batchMember{work: work, done: make(chan batchResult, 1)}
	b.mu.Lock()
	p := b.pending[key]
	if p == nil {
		p = &pendingBatch{key: key, ex: ex, fire: make(chan struct{})}
		b.pending[key] = p
		go b.lead(p)
	}
	p.members = append(p.members, m)
	if len(p.members) >= b.max && !p.fired {
		p.fired = true
		delete(b.pending, key)
		close(p.fire)
	}
	b.mu.Unlock()

	select {
	case res := <-m.done:
		return res.d, res.err
	case <-ctx.Done():
	}
	b.mu.Lock()
	if !p.dispatched {
		m.gone = true
	}
	b.mu.Unlock()
	return 0, ctx.Err()
}

// lead runs one batch's lifecycle: wait out the window (or an early fire
// when the batch fills), snapshot the members that did not withdraw, and
// issue the single coalesced device dispatch, fanning the result out to
// every live member.
func (b *batcher) lead(p *pendingBatch) {
	timer := b.clock.AfterFunc(b.window, func() {
		b.mu.Lock()
		if !p.fired {
			p.fired = true
			delete(b.pending, p.key)
			close(p.fire)
		}
		b.mu.Unlock()
	})
	<-p.fire
	timer.Stop()

	b.mu.Lock()
	works := make([]float64, 0, len(p.members))
	live := make([]*batchMember, 0, len(p.members))
	for _, m := range p.members {
		if m.gone {
			continue
		}
		works = append(works, m.work)
		live = append(live, m)
	}
	p.dispatched = true
	b.mu.Unlock()

	if len(live) == 0 {
		return // every member withdrew before the window closed
	}
	d, err := p.ex.ExecBatch(b.baseCtx, works)
	b.dispatchC.Inc()
	b.batchedC.Add(uint64(len(live)))
	if c := b.sizes[sizeBucket(len(live))]; c != nil {
		c.Inc()
	}
	for _, m := range live {
		m.done <- batchResult{d: d, err: err}
	}
}
