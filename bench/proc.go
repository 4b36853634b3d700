package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSnap is a reading of the process-wide counters the benchmark
// reports per op, taken without stopping the world. Client, server and
// load generator share the process, so every figure covers all three.
type procSnap struct {
	at         time.Duration // since the phase's time base
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint64
	cpu        time.Duration // user + system
	mutexWait  time.Duration
}

var procSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
}

func readProc(base time.Time) procSnap {
	s := make([]metrics.Sample, len(procSamples))
	for i, name := range procSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return procSnap{
		at:         time.Since(base),
		mallocs:    s[0].Value.Uint64() + s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mutexWait:  time.Duration(s[4].Value.Float64() * float64(time.Second)),
	}
}

// gcPauseTotal reads the cumulative stop-the-world pause time. It stops
// the world itself, so it is read only at a phase's ends.
func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// procLog is what the sampler saw over a phase: a counter reading at every
// sub-window boundary, and the maxima of its faster polling.
type procLog struct {
	snaps      []procSnap
	gcPause    time.Duration
	rssBytes   int64
	goroutines int
}

// subWindows is how many equal stretches a measured window is cut into;
// loadMetrics says what for.
const subWindows = 40

// sampler reads the counters at each sub-window boundary and polls
// resident set size and goroutine count in between.
type sampler struct {
	base    time.Time
	stopCh  chan struct{}
	wg      sync.WaitGroup
	log     procLog
	pause0  time.Duration
	snapGap time.Duration
}

const pollEvery = 20 * time.Millisecond

// startSampler begins sampling a window of the given length whose sample
// timestamps count from base.
func startSampler(base time.Time, window time.Duration) *sampler {
	s := &sampler{base: base, stopCh: make(chan struct{}), snapGap: window / subWindows, pause0: gcPauseTotal()}
	s.log.snaps = append(make([]procSnap, 0, subWindows+2), readProc(base))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		poll := time.NewTicker(min(pollEvery, s.snapGap))
		defer poll.Stop()
		next := s.log.snaps[0].at + s.snapGap
		for {
			s.log.rssBytes = max(s.log.rssBytes, rssBytes())
			s.log.goroutines = max(s.log.goroutines, runtime.NumGoroutine())
			select {
			case <-poll.C:
				if time.Since(base) >= next {
					s.log.snaps = append(s.log.snaps, readProc(base))
					next += s.snapGap
				}
			case <-s.stopCh:
				return
			}
		}
	}()
	return s
}

// stop takes the closing reading and returns the log.
func (s *sampler) stop() procLog {
	close(s.stopCh)
	s.wg.Wait()
	s.log.snaps = append(s.log.snaps, readProc(s.base))
	s.log.gcPause = gcPauseTotal() - s.pause0
	return s.log
}

// rssBytes reads the resident set size from /proc/self/statm, or 0 where
// that file does not exist.
func rssBytes() int64 {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(buf))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
