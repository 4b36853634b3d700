// Package workload generates the client load patterns of the evaluation:
// fixed-count parallel batches, the ramping closed-loop client
// population of the autoscaling experiment (§5.5), and open-loop trace
// replay (Replay) for the scenario harness's trace-driven workloads.
package workload

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"kaas/internal/vclock"
)

// sleepCtx waits d of modeled time, returning false immediately when ctx
// is done first. Unlike Clock.Sleep it never strands the caller past a
// cancellation, so load generators stop promptly mid-schedule.
func sleepCtx(ctx context.Context, clock vclock.Clock, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	done := make(chan struct{})
	t := clock.AfterFunc(d, func() { close(done) })
	select {
	case <-ctx.Done():
		t.Stop()
		return false
	case <-done:
		return true
	}
}

// Task performs one unit of client work (one kernel invocation end to
// end) and returns its completion time in modeled time.
type Task func(ctx context.Context, client int) (time.Duration, error)

// RunParallel launches n clients that each perform one task concurrently
// and returns all completion times. The first error aborts the run.
func RunParallel(ctx context.Context, n int, task Task) ([]time.Duration, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: invalid client count %d", n)
	}
	durations := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durations[i], errs[i] = task(ctx, i)
		}()
	}
	wg.Wait()
	return durations, errors.Join(errs...)
}

// Completion is one finished task in a ramp run.
type Completion struct {
	// Client is the issuing client index.
	Client int
	// Start and End are modeled times relative to the ramp start.
	Start, End time.Duration
	// Duration is the task completion time.
	Duration time.Duration
}

// RampConfig describes a growing closed-loop client population.
type RampConfig struct {
	// Clock is the time source (required).
	Clock vclock.Clock
	// Interval is how often a new client joins.
	Interval time.Duration
	// MaxClients bounds the population.
	MaxClients int
	// Total is the experiment duration; at Total all clients stop.
	Total time.Duration
	// ClientThinkTime is slept between a client's tasks (response
	// handling, logging — the turnaround the paper observes).
	ClientThinkTime time.Duration
}

// Validate reports configuration problems.
func (c *RampConfig) Validate() error {
	if c.Clock == nil {
		return fmt.Errorf("workload: ramp needs a clock")
	}
	if c.Interval <= 0 || c.MaxClients <= 0 || c.Total <= 0 {
		return fmt.Errorf("workload: invalid ramp config %+v", c)
	}
	return nil
}

// Ramp starts one closed-loop client every Interval up to MaxClients and
// runs until Total has elapsed in modeled time. It returns every task
// completion. Task errors stop the failing client but not the run.
// Cancelling the context mid-ramp stops the run promptly — no further
// clients launch and the wait-out of the schedule is abandoned — and
// returns the completions recorded so far along with the context's
// error.
func Ramp(parent context.Context, cfg RampConfig, task Task) ([]Completion, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := cfg.Clock.Now()
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		mu          sync.Mutex
		completions []Completion
		wg          sync.WaitGroup
	)

	runClient := func(id int) {
		defer wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			tStart := cfg.Clock.Now()
			if tStart.Sub(start) >= cfg.Total {
				return
			}
			d, err := task(ctx, id)
			if err != nil {
				return // context cancelled or client failure
			}
			tEnd := cfg.Clock.Now()
			mu.Lock()
			completions = append(completions, Completion{
				Client:   id,
				Start:    tStart.Sub(start),
				End:      tEnd.Sub(start),
				Duration: d,
			})
			mu.Unlock()
			if cfg.ClientThinkTime > 0 && !sleepCtx(ctx, cfg.Clock, cfg.ClientThinkTime) {
				return
			}
		}
	}

	// Launch clients on the ramp schedule.
	for i := 0; i < cfg.MaxClients; i++ {
		elapsed := cfg.Clock.Now().Sub(start)
		if elapsed >= cfg.Total {
			break
		}
		wg.Add(1)
		go runClient(i)
		if i < cfg.MaxClients-1 && !sleepCtx(ctx, cfg.Clock, cfg.Interval) {
			break
		}
	}
	// Wait out the remainder of the experiment, then stop everyone.
	if remaining := cfg.Total - cfg.Clock.Now().Sub(start); remaining > 0 {
		sleepCtx(ctx, cfg.Clock, remaining)
	}
	cancel()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	out := make([]Completion, len(completions))
	copy(out, completions)
	return out, parent.Err()
}

// Replay fires one task per offset, each at its offset from the replay
// start in modeled time — the open-loop arrival process of a trace-driven
// workload (the trace synthesizers live in internal/scenario). Offsets
// must be non-decreasing. maxConcurrent bounds the in-flight tasks; once
// the bound is reached the replay blocks before dispatching the next
// arrival, degrading from open-loop to closed-loop under overload rather
// than spawning unboundedly (<= 0 means unbounded). Each task receives
// its offset index as the client argument. Completions are recorded for
// tasks that return nil; callers that need to observe failures classify
// them inside the task. Cancelling the context abandons undispatched
// arrivals, waits for in-flight tasks, and returns the context's error.
func Replay(ctx context.Context, clock vclock.Clock, offsets []time.Duration, maxConcurrent int, task Task) ([]Completion, error) {
	if task == nil {
		return nil, fmt.Errorf("workload: replay needs a task")
	}
	if clock == nil {
		return nil, fmt.Errorf("workload: replay needs a clock")
	}
	if !sort.SliceIsSorted(offsets, func(i, j int) bool { return offsets[i] < offsets[j] }) {
		return nil, fmt.Errorf("workload: replay offsets must be non-decreasing")
	}

	var sem chan struct{}
	if maxConcurrent > 0 {
		sem = make(chan struct{}, maxConcurrent)
	}

	var (
		mu          sync.Mutex
		completions []Completion
		wg          sync.WaitGroup
	)
	start := clock.Now()
	for i, off := range offsets {
		if wait := off - clock.Now().Sub(start); wait > 0 && !sleepCtx(ctx, clock, wait) {
			break
		}
		if ctx.Err() != nil {
			break
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			tStart := clock.Now()
			d, err := task(ctx, i)
			if err != nil {
				return
			}
			tEnd := clock.Now()
			mu.Lock()
			completions = append(completions, Completion{
				Client:   i,
				Start:    tStart.Sub(start),
				End:      tEnd.Sub(start),
				Duration: d,
			})
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	out := make([]Completion, len(completions))
	copy(out, completions)
	return out, ctx.Err()
}
