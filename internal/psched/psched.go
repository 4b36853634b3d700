// Package psched implements work-conserving scheduling engines used to
// model contended accelerator resources.
//
// An Engine represents one resource (a GPU's execution units, a PCIe link,
// an FPGA fabric) with a fixed service capacity expressed in abstract work
// units per modeled second. Jobs carry an amount of work; the engine
// advances them according to its discipline and completes them after the
// exact amount of modeled time dictated by the contention it observed:
//
//   - ProcessorSharing: all admitted jobs progress simultaneously, each at
//     capacity/k when k jobs are active. This models space-shared devices
//     such as GPUs under MPS, where concurrent kernels divide the SMs.
//   - FIFO: jobs run one at a time at full capacity in arrival order. This
//     models exclusive (time-shared) devices.
//
// The engine is event driven: on every arrival and departure it recomputes
// per-job progress and schedules a timer for the next completion, so job
// finish times are exact under the fluid model regardless of wall-clock
// jitter. All timing flows through a vclock.Clock, so the same engine runs
// in scaled simulation time or real time. On an exact clock, one that
// moves only when told to, finish times are exact to the nanosecond.
package psched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"kaas/internal/vclock"
)

// Discipline selects how an Engine shares its capacity among jobs.
type Discipline int

const (
	// ProcessorSharing divides capacity equally among all active jobs.
	ProcessorSharing Discipline = iota + 1
	// FIFO serves one job at a time at full capacity.
	FIFO
)

// String returns the discipline name.
func (d Discipline) String() string {
	switch d {
	case ProcessorSharing:
		return "processor-sharing"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// ErrEngineClosed is returned by Run when the engine has been shut down.
var ErrEngineClosed = errors.New("psched: engine closed")

// workEpsilon absorbs floating-point residue when deciding completion.
const workEpsilon = 1e-9

// Config describes an Engine.
type Config struct {
	// Capacity is the service rate in work units per modeled second.
	// It must be positive.
	Capacity float64
	// Discipline selects the sharing model. Defaults to ProcessorSharing.
	Discipline Discipline
	// MaxActive caps the number of concurrently served jobs; further
	// arrivals queue. Zero means unlimited (FIFO always serves one at a
	// time regardless).
	MaxActive int
}

// Engine is a single simulated resource. It is safe for concurrent use.
type Engine struct {
	clock vclock.Clock
	cfg   Config

	mu         sync.Mutex
	active     []*job
	queue      []*job
	lastUpdate time.Time
	timer      vclock.Timer
	closed     atomic.Bool // written under mu; zero work reads it without

	// accounting
	busy     time.Duration // total modeled time with >=1 active job
	workDone float64       // total work units served
	peak     int           // max concurrently active jobs observed
}

type job struct {
	work      float64
	remaining float64
	done      chan struct{}
	cancelled bool
	enqueued  time.Time
	started   time.Time // when first admitted to service
	finished  time.Time
}

// New creates an Engine from cfg, using clock for all timing.
func New(clock vclock.Clock, cfg Config) (*Engine, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("psched: capacity must be positive, got %v", cfg.Capacity)
	}
	if cfg.Discipline == 0 {
		cfg.Discipline = ProcessorSharing
	}
	if cfg.Discipline == FIFO {
		cfg.MaxActive = 1
	}
	return &Engine{
		clock:      clock,
		cfg:        cfg,
		lastUpdate: clock.Now(),
	}, nil
}

// Capacity returns the configured service rate in work units per second.
func (e *Engine) Capacity() float64 { return e.cfg.Capacity }

// Usage is a snapshot of the engine's accounting counters.
type Usage struct {
	// BusyTime is the total modeled time during which at least one job
	// was being served.
	BusyTime time.Duration
	// WorkDone is the total work served so far.
	WorkDone float64
	// Active is the number of jobs currently in service.
	Active int
	// Queued is the number of jobs waiting for admission.
	Queued int
	// PeakActive is the maximum concurrency observed.
	PeakActive int
}

// Usage returns current accounting counters. The busy-time integral is
// advanced to the present before sampling.
func (e *Engine) Usage() Usage {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advanceLocked(e.clock.Now())
	return Usage{
		BusyTime:   e.busy,
		WorkDone:   e.workDone,
		Active:     len(e.active),
		Queued:     len(e.queue),
		PeakActive: e.peak,
	}
}

// Run submits a job with the given amount of work and blocks until the
// engine has served it, the context is cancelled, or the engine is closed.
// It returns the modeled time spent waiting plus in service.
func (e *Engine) Run(ctx context.Context, work float64) (time.Duration, error) {
	if work < 0 {
		return 0, fmt.Errorf("psched: negative work %v", work)
	}
	if work <= workEpsilon {
		// Zero-cost job: complete immediately, before the lock, without
		// perturbing state — unless the engine is closed.
		if e.closed.Load() {
			return 0, ErrEngineClosed
		}
		return 0, nil
	}
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return 0, ErrEngineClosed
	}
	now := e.clock.Now()
	e.advanceLocked(now)
	j := &job{
		work:      work,
		remaining: work,
		enqueued:  now,
		done:      make(chan struct{}),
	}
	e.queue = append(e.queue, j)
	e.admitLocked(now)
	e.rescheduleLocked(now)
	e.mu.Unlock()

	select {
	case <-j.done:
		e.mu.Lock()
		elapsed := j.finished.Sub(j.enqueued)
		closed := e.closed.Load() && j.finished.IsZero()
		e.mu.Unlock()
		if closed {
			return 0, ErrEngineClosed
		}
		return elapsed, nil
	case <-ctx.Done():
		e.cancel(j)
		return e.clock.Now().Sub(j.enqueued), ctx.Err()
	}
}

// Close shuts the engine down, releasing all waiting jobs with
// ErrEngineClosed. It is safe to call multiple times.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return
	}
	e.advanceLocked(e.clock.Now())
	e.closed.Store(true)
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	for _, j := range e.active {
		close(j.done)
	}
	for _, j := range e.queue {
		close(j.done)
	}
	e.active = nil
	e.queue = nil
}

// cancel withdraws a job after its context was cancelled.
func (e *Engine) cancel(j *job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return
	}
	now := e.clock.Now()
	e.advanceLocked(now)
	j.cancelled = true
	e.active = removeJob(e.active, j)
	e.queue = removeJob(e.queue, j)
	e.admitLocked(now)
	e.rescheduleLocked(now)
}

func removeJob(list []*job, j *job) []*job {
	for i, x := range list {
		if x == j {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// advanceLocked integrates progress from lastUpdate to now. It steps
// through intermediate completion deadlines so that jobs finish at their
// exact fluid-model times even when the wall-clock timer fires late: a
// late timer must not grant extra progress at a stale sharing rate, nor
// record an inflated finish time.
func (e *Engine) advanceLocked(now time.Time) {
	for now.After(e.lastUpdate) {
		if len(e.active) == 0 {
			e.lastUpdate = now
			return
		}
		perJob := e.perJobRateLocked()
		minRemaining := e.active[0].remaining
		for _, j := range e.active[1:] {
			if j.remaining < minRemaining {
				minRemaining = j.remaining
			}
		}
		windowSec := now.Sub(e.lastUpdate).Seconds()
		needSec := minRemaining / perJob
		if needSec*float64(time.Second) < 1 {
			// Sub-nanosecond residue: finish the nearly-done jobs in place
			// so the loop always makes progress.
			for _, j := range e.active {
				if j.remaining <= minRemaining+workEpsilon {
					j.remaining = 0
				}
			}
			e.completeLocked(e.lastUpdate)
			continue
		}
		var step time.Time
		if needSec < windowSec {
			step = e.lastUpdate.Add(time.Duration(needSec * float64(time.Second)))
		} else {
			step = now
		}
		elapsed := step.Sub(e.lastUpdate)
		progressed := perJob * elapsed.Seconds()
		for _, j := range e.active {
			j.remaining -= progressed
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
		e.busy += elapsed
		e.workDone += progressed * float64(len(e.active))
		e.lastUpdate = step
		e.completeLocked(step)
	}
}

// perJobRateLocked returns the service rate each active job receives.
func (e *Engine) perJobRateLocked() float64 {
	n := len(e.active)
	if n == 0 {
		return 0
	}
	switch e.cfg.Discipline {
	case FIFO:
		return e.cfg.Capacity
	default:
		return e.cfg.Capacity / float64(n)
	}
}

// completeLocked finishes all jobs whose work is exhausted and admits
// queued jobs into freed slots.
func (e *Engine) completeLocked(now time.Time) {
	remaining := e.active[:0]
	for _, j := range e.active {
		if j.remaining <= workEpsilon {
			j.finished = now
			close(j.done)
			continue
		}
		remaining = append(remaining, j)
	}
	e.active = remaining
	e.admitLocked(now)
}

// admitLocked moves queued jobs into service while slots are available.
func (e *Engine) admitLocked(now time.Time) {
	for len(e.queue) > 0 {
		if e.cfg.MaxActive > 0 && len(e.active) >= e.cfg.MaxActive {
			return
		}
		j := e.queue[0]
		e.queue = e.queue[1:]
		j.started = now
		e.active = append(e.active, j)
		if len(e.active) > e.peak {
			e.peak = len(e.active)
		}
	}
}

// rescheduleLocked (re)arms the completion timer for the earliest finishing
// active job.
func (e *Engine) rescheduleLocked(now time.Time) {
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	if len(e.active) == 0 || e.closed.Load() {
		return
	}
	minRemaining := e.active[0].remaining
	for _, j := range e.active[1:] {
		if j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	perJob := e.perJobRateLocked()
	needSec := minRemaining / perJob
	// Clamp to avoid time.Duration overflow for enormous jobs; the timer
	// simply re-arms when it fires early relative to the fluid deadline.
	const maxTimerSec = float64(time.Hour) * 24 * 365 / float64(time.Second)
	if needSec > maxTimerSec {
		needSec = maxTimerSec
	}
	// Round up: a truncated sub-nanosecond wait would arm a zero-delay
	// timer that fires at the instant lastUpdate already holds, so
	// advanceLocked could never retire the residue.
	e.timer = e.clock.AfterFunc(time.Duration(math.Ceil(needSec*float64(time.Second))), e.onTimer)
}

// onTimer advances state when a completion deadline is reached.
func (e *Engine) onTimer() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return
	}
	now := e.clock.Now()
	e.advanceLocked(now)
	e.rescheduleLocked(now)
}
