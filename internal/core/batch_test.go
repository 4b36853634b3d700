package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/metrics"
	"kaas/internal/vclock"
)

// fakeExecer records every coalesced dispatch it receives.
type fakeExecer struct {
	mu      sync.Mutex
	batches [][]float64
	err     error
}

func (f *fakeExecer) ExecBatch(ctx context.Context, works []float64) (time.Duration, error) {
	f.mu.Lock()
	snap := make([]float64, len(works))
	copy(snap, works)
	f.batches = append(f.batches, snap)
	f.mu.Unlock()
	return time.Millisecond, f.err
}

func (f *fakeExecer) dispatched() [][]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]float64, len(f.batches))
	copy(out, f.batches)
	return out
}

func newTestBatcher(clock vclock.Clock, window time.Duration, max int) *batcher {
	return newBatcher(clock, window, max, context.Background(), metrics.NewRegistry())
}

// join starts one member and returns a channel carrying its outcome.
func join(b *batcher, ctx context.Context, key batchKey, ex batchExecer, work float64) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := b.exec(ctx, key, ex, work)
		done <- err
	}()
	return done
}

// waitMembers blocks until the pending batch for key holds n members.
func waitMembers(t *testing.T, b *batcher, key batchKey, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		b.mu.Lock()
		p := b.pending[key]
		got := 0
		if p != nil {
			got = len(p.members)
		}
		b.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("batch %v never reached %d members", key, n)
}

// TestBatchNeverMixesKernels drives two kernels' invocations through one
// batcher concurrently: no dispatch may ever carry work from more than
// one (device, kernel) key.
func TestBatchNeverMixesKernels(t *testing.T) {
	clock := vclock.Scaled(1000)
	b := newTestBatcher(clock, 10*time.Millisecond, 4)
	keyA := batchKey{device: "gpu0", kernel: "matmul"}
	keyB := batchKey{device: "gpu0", kernel: "fft"}
	exA, exB := &fakeExecer{}, &fakeExecer{}

	const per = 32
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if _, err := b.exec(context.Background(), keyA, exA, 1000+float64(i)); err != nil {
				t.Errorf("exec A%d: %v", i, err)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			if _, err := b.exec(context.Background(), keyB, exB, 2000+float64(i)); err != nil {
				t.Errorf("exec B%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	countA, countB := 0, 0
	for _, batch := range exA.dispatched() {
		for _, w := range batch {
			if w < 1000 || w >= 2000 {
				t.Fatalf("kernel A dispatch carries foreign work %v", w)
			}
			countA++
		}
	}
	for _, batch := range exB.dispatched() {
		for _, w := range batch {
			if w < 2000 {
				t.Fatalf("kernel B dispatch carries foreign work %v", w)
			}
			countB++
		}
	}
	if countA != per || countB != per {
		t.Fatalf("dispatched %d A + %d B invocations, want %d each", countA, countB, per)
	}
}

// TestBatchWindowExpiryDispatchesPartial parks three members in a batch
// far below its size cap: the window timer alone must flush them as one
// dispatch.
func TestBatchWindowExpiryDispatchesPartial(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	b := newTestBatcher(clock, 50*time.Millisecond, 64)
	key := batchKey{device: "gpu0", kernel: "k"}
	ex := &fakeExecer{}

	dones := []chan error{
		join(b, context.Background(), key, ex, 1),
		join(b, context.Background(), key, ex, 2),
		join(b, context.Background(), key, ex, 3),
	}
	waitMembers(t, b, key, 3)

	clock.Advance(50 * time.Millisecond)
	for i, done := range dones {
		if err := <-done; err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	got := ex.dispatched()
	if len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("dispatches = %v, want one batch of 3", got)
	}
	if b.dispatchC.Value() != 1 || b.batchedC.Value() != 3 {
		t.Fatalf("counters = %d dispatches / %d batched, want 1/3",
			b.dispatchC.Value(), b.batchedC.Value())
	}
}

// TestBatchCancelledMemberSparesSiblings cancels one waiting member
// before the window closes: it withdraws with its context error while
// its siblings dispatch and complete normally.
func TestBatchCancelledMemberSparesSiblings(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	b := newTestBatcher(clock, 50*time.Millisecond, 64)
	key := batchKey{device: "gpu0", kernel: "k"}
	ex := &fakeExecer{}

	ctx, cancel := context.WithCancel(context.Background())
	victim := join(b, ctx, key, ex, 99)
	sibs := []chan error{
		join(b, context.Background(), key, ex, 1),
		join(b, context.Background(), key, ex, 2),
	}
	waitMembers(t, b, key, 3)

	cancel()
	if err := <-victim; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled member err = %v, want context.Canceled", err)
	}

	clock.Advance(50 * time.Millisecond)
	for i, done := range sibs {
		if err := <-done; err != nil {
			t.Fatalf("sibling %d: %v", i, err)
		}
	}
	got := ex.dispatched()
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("dispatches = %v, want one batch of 2 (victim withdrawn)", got)
	}
	for _, w := range got[0] {
		if w == 99 {
			t.Fatal("withdrawn member's work reached the device")
		}
	}
}

// TestBatchAllMembersCancelledSkipsDispatch cancels every member: the
// window closes over an empty batch and nothing reaches the device.
func TestBatchAllMembersCancelledSkipsDispatch(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	b := newTestBatcher(clock, 50*time.Millisecond, 64)
	key := batchKey{device: "gpu0", kernel: "k"}
	ex := &fakeExecer{}

	ctx, cancel := context.WithCancel(context.Background())
	dones := []chan error{
		join(b, ctx, key, ex, 1),
		join(b, ctx, key, ex, 2),
	}
	waitMembers(t, b, key, 2)
	cancel()
	for _, done := range dones {
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("member err = %v, want context.Canceled", err)
		}
	}

	clock.Advance(50 * time.Millisecond)
	// Give the leader goroutine a beat to observe the empty batch.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		b.mu.Lock()
		gone := b.pending[key] == nil
		b.mu.Unlock()
		if gone {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := ex.dispatched(); len(got) != 0 {
		t.Fatalf("dispatches = %v, want none (all members withdrew)", got)
	}
	if b.dispatchC.Value() != 0 {
		t.Fatalf("dispatch counter = %d, want 0", b.dispatchC.Value())
	}
}

// TestBatchDeterministicComposition feeds members in a fixed arrival
// order with a size cap: the resulting batch compositions are a pure
// function of that order, so two identical runs produce identical
// dispatches.
func TestBatchDeterministicComposition(t *testing.T) {
	run := func() [][]float64 {
		clock := vclock.NewManual(time.Unix(0, 0))
		b := newTestBatcher(clock, time.Second, 4)
		key := batchKey{device: "gpu0", kernel: "k"}
		ex := &fakeExecer{}
		var dones []chan error
		for i := 0; i < 8; i++ {
			dones = append(dones, join(b, context.Background(), key, ex, float64(i)))
			// Serialize arrivals: wait until this member is registered (or,
			// for a capping member, until its batch dispatched) before
			// admitting the next, pinning the composition.
			if i%4 == 3 {
				if err := <-dones[i]; err != nil {
					t.Fatalf("member %d: %v", i, err)
				}
			} else {
				waitMembers(t, b, key, (i%4)+1)
			}
		}
		for i, done := range dones {
			if i%4 == 3 {
				continue // capping member already drained above
			}
			if err := <-done; err != nil {
				t.Fatalf("member %d: %v", i, err)
			}
		}
		return ex.dispatched()
	}

	first, second := run(), run()
	want := [][]float64{{0, 1, 2, 3}, {4, 5, 6, 7}}
	for name, got := range map[string][][]float64{"first": first, "second": second} {
		if len(got) != len(want) {
			t.Fatalf("%s run dispatches = %v, want %v", name, got, want)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s run batch %d = %v, want %v", name, i, got[i], want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s run batch %d = %v, want %v", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchSizeCapFiresEarly fills a batch to its cap well inside the
// window: it must dispatch immediately without waiting for the timer.
func TestBatchSizeCapFiresEarly(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	b := newTestBatcher(clock, time.Hour, 2)
	key := batchKey{device: "gpu0", kernel: "k"}
	ex := &fakeExecer{}

	dones := []chan error{
		join(b, context.Background(), key, ex, 1),
		join(b, context.Background(), key, ex, 2),
	}
	// No clock advance at all: the cap alone must fire the batch.
	for i, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("member %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("member %d never dispatched at size cap", i)
		}
	}
	if got := ex.dispatched(); len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("dispatches = %v, want one batch of 2", got)
	}
}

// TestServerBatchingCoalesces runs concurrent same-kernel invocations
// through a batching server: every invocation succeeds, yet the device
// sees fewer dispatches than there were invocations.
func TestServerBatchingCoalesces(t *testing.T) {
	s, _, _ := newTestServer(t, 1, func(cfg *Config) {
		cfg.BatchWindow = 5 * time.Millisecond
		cfg.BatchMax = 8
	})
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.Invoke(context.Background(), "k", nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}

	st := s.Stats()
	if !st.Batching {
		t.Fatal("Stats().Batching = false on a batching server")
	}
	dp := st.DataPlane
	if dp.BatchedInvocations != n {
		t.Fatalf("BatchedInvocations = %d, want %d", dp.BatchedInvocations, n)
	}
	if dp.BatchDispatches == 0 || dp.BatchDispatches >= n {
		t.Fatalf("BatchDispatches = %d, want 0 < dispatches < %d (coalescing)", dp.BatchDispatches, n)
	}
	t.Logf("%d invocations coalesced into %d device dispatches", n, dp.BatchDispatches)
}
