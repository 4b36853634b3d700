package workload

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kaas/internal/vclock"
)

func TestRunParallel(t *testing.T) {
	var count atomic.Int32
	durations, err := RunParallel(context.Background(), 5,
		func(_ context.Context, client int) (time.Duration, error) {
			count.Add(1)
			return time.Duration(client) * time.Second, nil
		})
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	if count.Load() != 5 || len(durations) != 5 {
		t.Errorf("count=%d durations=%d, want 5/5", count.Load(), len(durations))
	}
	if durations[3] != 3*time.Second {
		t.Errorf("durations[3] = %v", durations[3])
	}
}

func TestRunParallelValidation(t *testing.T) {
	if _, err := RunParallel(context.Background(), 0, nil); err == nil {
		t.Error("zero clients succeeded")
	}
}

func TestRunParallelPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := RunParallel(context.Background(), 3,
		func(_ context.Context, client int) (time.Duration, error) {
			if client == 1 {
				return 0, boom
			}
			return time.Second, nil
		})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestRampValidation(t *testing.T) {
	if _, err := Ramp(context.Background(), RampConfig{}, nil); err == nil {
		t.Error("empty config succeeded")
	}
	cfg := RampConfig{Clock: vclock.Scaled(1000), Interval: -1, MaxClients: 1, Total: time.Second}
	if _, err := Ramp(context.Background(), cfg, nil); err == nil {
		t.Error("negative interval succeeded")
	}
}

func TestRampGrowsPopulation(t *testing.T) {
	// 12 modeled seconds are 120 ms of wall time at this scale: room for
	// every 2-second ramp step to land on a loaded 2-vCPU box.
	clock := vclock.Scaled(100)
	cfg := RampConfig{
		Clock:      clock,
		Interval:   2 * time.Second,
		MaxClients: 5,
		Total:      12 * time.Second,
	}
	var maxClient atomic.Int32
	completions, err := Ramp(context.Background(), cfg,
		func(_ context.Context, client int) (time.Duration, error) {
			if int32(client) > maxClient.Load() {
				maxClient.Store(int32(client))
			}
			clock.Sleep(500 * time.Millisecond) // simulated task
			return 500 * time.Millisecond, nil
		})
	if err != nil {
		t.Fatalf("Ramp: %v", err)
	}
	if len(completions) == 0 {
		t.Fatal("no completions recorded")
	}
	if maxClient.Load() != 4 {
		t.Errorf("max client index = %d, want 4 (all five clients ran)", maxClient.Load())
	}
	// Early completions come from client 0 only; late ones from many.
	for _, c := range completions {
		if c.End < c.Start {
			t.Fatalf("completion ends before start: %+v", c)
		}
		if c.Start > cfg.Total {
			t.Fatalf("task started after experiment end: %+v", c)
		}
	}
}

func TestRampStopsAtTotal(t *testing.T) {
	clock := vclock.Scaled(1000)
	cfg := RampConfig{
		Clock:           clock,
		Interval:        time.Second,
		MaxClients:      2,
		Total:           5 * time.Second,
		ClientThinkTime: 100 * time.Millisecond,
	}
	start := clock.Now()
	_, err := Ramp(context.Background(), cfg,
		func(context.Context, int) (time.Duration, error) {
			clock.Sleep(300 * time.Millisecond)
			return 300 * time.Millisecond, nil
		})
	if err != nil {
		t.Fatalf("Ramp: %v", err)
	}
	elapsed := clock.Now().Sub(start)
	if elapsed < 5*time.Second {
		t.Errorf("ramp ended at %v, want >= Total", elapsed)
	}
	if elapsed > 8*time.Second {
		t.Errorf("ramp overran to %v, want ~Total", elapsed)
	}
}

func TestRampValidationEdgeCases(t *testing.T) {
	clock := vclock.Scaled(1000)
	cases := []struct {
		name string
		cfg  RampConfig
	}{
		{"nil clock", RampConfig{Interval: time.Second, MaxClients: 1, Total: time.Second}},
		{"zero interval", RampConfig{Clock: clock, MaxClients: 1, Total: time.Second}},
		{"zero max clients", RampConfig{Clock: clock, Interval: time.Second, Total: time.Second}},
		{"negative max clients", RampConfig{Clock: clock, Interval: time.Second, MaxClients: -3, Total: time.Second}},
		{"zero total", RampConfig{Clock: clock, Interval: time.Second, MaxClients: 1}},
		{"negative total", RampConfig{Clock: clock, Interval: time.Second, MaxClients: 1, Total: -time.Second}},
	}
	for _, tc := range cases {
		if _, err := Ramp(context.Background(), tc.cfg, nil); err == nil {
			t.Errorf("%s: Ramp accepted invalid config", tc.name)
		}
	}
}

func TestRampCtxCancelMidRamp(t *testing.T) {
	clock := vclock.Scaled(1000)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := RampConfig{
		Clock:      clock,
		Interval:   time.Second,
		MaxClients: 4,
		// An hour of modeled time: without prompt cancellation the run
		// would wait out the schedule for ~3.6 wall seconds.
		Total:           time.Hour,
		ClientThinkTime: 100 * time.Millisecond,
	}
	var calls atomic.Int32
	done := make(chan struct{})
	var (
		completions []Completion
		err         error
	)
	go func() {
		defer close(done)
		completions, err = Ramp(ctx, cfg, func(context.Context, int) (time.Duration, error) {
			if calls.Add(1) == 5 {
				cancel()
			}
			clock.Sleep(200 * time.Millisecond)
			return 200 * time.Millisecond, nil
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Ramp did not return promptly after ctx cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// Completions recorded before the cancel are preserved.
	if len(completions) == 0 {
		t.Error("no completions returned from a cancelled ramp")
	}
}

func TestRampPreCancelledContext(t *testing.T) {
	clock := vclock.Scaled(1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := RampConfig{Clock: clock, Interval: time.Second, MaxClients: 2, Total: time.Hour}
	var calls atomic.Int32
	start := time.Now()
	_, err := Ramp(ctx, cfg, func(context.Context, int) (time.Duration, error) {
		calls.Add(1)
		return time.Millisecond, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled ramp ran for %v wall time", elapsed)
	}
}

func TestReplayValidation(t *testing.T) {
	clock := vclock.Scaled(1000)
	noop := func(context.Context, int) (time.Duration, error) { return 0, nil }
	if _, err := Replay(context.Background(), clock, nil, 0, nil); err == nil {
		t.Error("nil task accepted")
	}
	if _, err := Replay(context.Background(), nil, nil, 0, noop); err == nil {
		t.Error("nil clock accepted")
	}
	unsorted := []time.Duration{2 * time.Second, time.Second}
	if _, err := Replay(context.Background(), clock, unsorted, 0, noop); err == nil {
		t.Error("unsorted offsets accepted")
	}
	got, err := Replay(context.Background(), clock, nil, 0, noop)
	if err != nil || len(got) != 0 {
		t.Errorf("empty replay = (%v, %v), want no completions, nil", got, err)
	}
}

func TestReplayFiresAtOffsets(t *testing.T) {
	clock := vclock.Scaled(1000)
	offsets := []time.Duration{0, 500 * time.Millisecond, time.Second, time.Second}
	completions, err := Replay(context.Background(), clock, offsets, 0,
		func(_ context.Context, i int) (time.Duration, error) {
			clock.Sleep(50 * time.Millisecond)
			return 50 * time.Millisecond, nil
		})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(completions) != len(offsets) {
		t.Fatalf("completions = %d, want %d", len(completions), len(offsets))
	}
	starts := make(map[int]time.Duration, len(completions))
	for _, c := range completions {
		starts[c.Client] = c.Start
	}
	for i, off := range offsets {
		if starts[i] < off {
			t.Errorf("task %d started at %v, before its offset %v", i, starts[i], off)
		}
		// Generous upper bound: scheduling noise, not the schedule.
		if starts[i] > off+5*time.Second {
			t.Errorf("task %d started at %v, far past its offset %v", i, starts[i], off)
		}
	}
}

func TestReplayErrorsAreNotRecorded(t *testing.T) {
	clock := vclock.Scaled(1000)
	boom := errors.New("boom")
	offsets := []time.Duration{0, 0, 0}
	completions, err := Replay(context.Background(), clock, offsets, 0,
		func(_ context.Context, i int) (time.Duration, error) {
			if i == 1 {
				return 0, boom
			}
			return time.Millisecond, nil
		})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(completions) != 2 {
		t.Errorf("completions = %d, want 2 (failed task dropped)", len(completions))
	}
}

func TestReplayBoundsConcurrency(t *testing.T) {
	clock := vclock.Scaled(1000)
	offsets := make([]time.Duration, 16) // all fire immediately
	var inFlight, peak atomic.Int32
	completions, err := Replay(context.Background(), clock, offsets, 2,
		func(context.Context, int) (time.Duration, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			clock.Sleep(100 * time.Millisecond)
			inFlight.Add(-1)
			return 100 * time.Millisecond, nil
		})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(completions) != 16 {
		t.Errorf("completions = %d, want 16", len(completions))
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d exceeded bound 2", p)
	}
}

func TestReplayCtxCancelAbandonsSchedule(t *testing.T) {
	clock := vclock.Scaled(1000)
	ctx, cancel := context.WithCancel(context.Background())
	// Second arrival is an hour of modeled time out; cancel must not
	// wait for it.
	offsets := []time.Duration{0, time.Hour}
	var calls atomic.Int32
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Replay(ctx, clock, offsets, 0,
			func(context.Context, int) (time.Duration, error) {
				calls.Add(1)
				cancel()
				return time.Millisecond, nil
			})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Replay did not return promptly after ctx cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (second arrival abandoned)", calls.Load())
	}
}
