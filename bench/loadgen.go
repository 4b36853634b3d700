package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/kernels"
	"kaas/internal/wire"
)

const (
	statusOK uint8 = iota
	statusShed
	statusFailed
)

// sample is the outcome of one op. start is when latency counts from: the
// send time in a closed loop, the due time in an open loop, so a stall
// that delays a send still costs the requests queued behind it. lag is
// how late the generator sent the op: after its due time in an open loop,
// after the caller's previous reply in a closed one.
type sample struct {
	op            uint64
	start, end    int64 // ns since measuring began
	lag           int64 // ns
	serverNs      int64 // Result.ServerTime (modeled)
	class, tenant uint8
	status        uint8
}

func (s *sample) latency() time.Duration { return time.Duration(s.end - s.start) }

// timed reports whether the op's latency enters the latency figures:
// successful ops, and on tenants-overload only the victims', whose
// service the fairness machinery exists to protect.
func (s *sample) timed() bool { return s.status == statusOK && s.tenant != aggressor }

// compareEvery is how often a result payload is compared byte for byte
// with the expected one; every result's checksum and length are checked.
const compareEvery = 64

// caller is the per-goroutine state of one load-generating caller.
type caller struct {
	e       *env
	pay     payloads
	params  kernels.Params
	samples []sample
	// mismatch is the first wrong output this caller saw.
	mismatch error
}

func newCaller(e *env, seed int64, id int) *caller {
	return &caller{e: e, pay: payloads{seed: seed + 16*int64(id)}, params: kernels.Params{}}
}

// do runs one op and checks its output.
func (c *caller) do(op uint64, spec *opSpec) (res *client.Result, status uint8) {
	data, sum := c.pay.request(spec, op)
	// The params map is reused: the client encodes it before the reply
	// can arrive, and nothing here cancels a call in flight.
	c.params["op"] = float64(op)
	c.params["work"] = spec.work
	res, err := c.e.invoke(context.Background(), spec, c.params, data)
	if err != nil {
		if isShed(err) {
			return nil, statusShed
		}
		if c.mismatch == nil {
			c.mismatch = fmt.Errorf("op %d: %w", op, err)
		}
		return nil, statusFailed
	}
	if err := c.check(op, data, sum, res); err != nil {
		if c.mismatch == nil {
			c.mismatch = err
		}
		return res, statusFailed
	}
	return res, statusOK
}

func (c *caller) check(op uint64, data []byte, sum uint64, res *client.Result) error {
	if got, want := res.Values["sum"], float64(expectedSum(sum, op)); got != want {
		return fmt.Errorf("op %d: sum %v, want %v", op, got, want)
	}
	if len(res.Data) != len(data) {
		return fmt.Errorf("op %d: result payload %d bytes, want %d", op, len(res.Data), len(data))
	}
	if len(data) > 0 && op%compareEvery == 0 {
		want := c.pay.scratch[:len(data)]
		scaleInto(want, data)
		if !bytes.Equal(res.Data, want) {
			return fmt.Errorf("op %d: result payload differs from the scaled request", op)
		}
	}
	return nil
}

// isShed reports a typed OVERLOADED rejection, over the wire or in
// process.
func isShed(err error) bool {
	var re *client.RemoteError
	if errors.As(err, &re) {
		return re.Code == wire.CodeOverloaded
	}
	return errors.Is(err, core.ErrOverloaded)
}

// phase is one timed stretch of load and everything observed during it.
type phase struct {
	samples     []sample
	elapsed     time.Duration // measured stretch (after warm-up)
	proc        procLog
	outstanding int   // most ops in flight at once
	mismatch    error // first wrong output or untyped error
}

// opCounter hands out op numbers; the trace position is op-1 modulo the
// trace length.
type opCounter = atomic.Uint64

// newSample records an op's outcome; the caller fills in its times.
func newSample(op uint64, spec *opSpec, res *client.Result, status uint8) sample {
	s := sample{op: op, class: spec.class, tenant: spec.tenant, status: status}
	if res != nil {
		s.serverNs = int64(res.ServerTime)
	}
	return s
}

// runClosed drives the env with w.callers goroutines, each sending its
// next request when the previous reply arrives, for warm then measure.
// Warm-up ops are sent and checked but not kept.
func runClosed(e *env, trace []opSpec, seed int64, ops *opCounter, rec *recorder, warm, measure time.Duration) phase {
	callers := make([]*caller, e.w.callers)
	for i := range callers {
		callers[i] = newCaller(e, seed, i)
	}
	loop := func(d time.Duration, keep bool) time.Duration {
		begin := time.Now()
		deadline := begin.Add(d)
		var wg sync.WaitGroup
		for _, c := range callers {
			wg.Add(1)
			go func(c *caller) {
				defer wg.Done()
				var last int64
				for {
					t0 := time.Now()
					if !t0.Before(deadline) {
						return
					}
					op := ops.Add(1)
					spec := &trace[(op-1)%uint64(len(trace))]
					res, status := c.do(op, spec)
					t1 := time.Now()
					if !keep {
						continue
					}
					s := newSample(op, spec, res, status)
					s.start, s.end = int64(t0.Sub(begin)), int64(t1.Sub(begin))
					if last > 0 {
						s.lag = s.start - last
					}
					last = s.end
					c.samples = append(c.samples, s)
					if rec != nil {
						rec.add(spanClientInvoke, op, t0, t1)
					}
				}
			}(c)
		}
		wg.Wait()
		return time.Since(begin)
	}

	warmOps := ops.Load()
	warmTook := loop(warm, false)
	warmOps = ops.Load() - warmOps
	// Size the sample buffers from the warm-up rate, with headroom.
	perCaller := int(float64(warmOps)/warmTook.Seconds()*measure.Seconds()*1.5)/len(callers) + 1024
	for _, c := range callers {
		c.samples = make([]sample, 0, perCaller)
	}

	var ph phase
	ph.outstanding = len(callers)
	sampler := startSampler(time.Now(), measure)
	ph.elapsed = loop(measure, true)
	ph.proc = sampler.stop()
	for _, c := range callers {
		ph.samples = append(ph.samples, c.samples...)
		if ph.mismatch == nil {
			ph.mismatch = c.mismatch
		}
	}
	return ph
}

// openWorkers is the pool of goroutines an open-loop schedule is served
// by. Each is parked on the dispatch channel or on a reply; admission
// sheds keep far fewer than this in flight.
const openWorkers = 256

// runOpen sends the trace's ops at their due times regardless of
// replies. Ops due before warm are sent and checked but not kept.
func runOpen(e *env, trace []opSpec, seed int64, opNum *opCounter, rec *recorder, warm, measure time.Duration) phase {
	type job struct {
		op   uint64
		spec *opSpec
	}
	jobs := make(chan job, len(trace)) // holds the whole schedule: the dispatcher never blocks
	workers := make([]*caller, openWorkers)
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	begin := time.Now()
	measureFrom := begin.Add(warm)
	for i := range workers {
		workers[i] = newCaller(e, seed, i)
		workers[i].samples = make([]sample, 0, len(trace)/openWorkers*4+64)
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				res, status := c.do(j.op, j.spec)
				end := time.Now()
				inFlight.Add(-1)
				if j.spec.due < warm {
					continue
				}
				s := newSample(j.op, j.spec, res, status)
				s.start, s.end = int64(j.spec.due-warm), int64(end.Sub(measureFrom))
				s.lag = int64(sent.Sub(begin) - j.spec.due)
				c.samples = append(c.samples, s)
				if rec != nil {
					rec.add(spanClientInvoke, j.op, sent, end)
				}
			}
		}(workers[i])
	}

	var ph phase
	dispatch := func(ops []opSpec) {
		for i := range ops {
			spec := &ops[i]
			if wait := time.Until(begin.Add(spec.due)); wait > 0 {
				time.Sleep(wait)
			}
			ph.outstanding = max(ph.outstanding, int(inFlight.Add(1)))
			jobs <- job{op: opNum.Add(1), spec: spec}
		}
	}
	measured := sort.Search(len(trace), func(i int) bool { return trace[i].due >= warm })
	dispatch(trace[:measured])
	sampler := startSampler(measureFrom, measure)
	dispatch(trace[measured:])
	close(jobs)
	wg.Wait()
	ph.elapsed = time.Since(measureFrom)
	ph.proc = sampler.stop()
	for _, c := range workers {
		ph.samples = append(ph.samples, c.samples...)
		if ph.mismatch == nil {
			ph.mismatch = c.mismatch
		}
	}
	return ph
}

// runLoad runs the workload's loop kind.
func runLoad(e *env, trace []opSpec, seed int64, ops *opCounter, rec *recorder, warm, measure time.Duration) phase {
	if e.w.open {
		return runOpen(e, trace, seed, ops, rec, warm, measure)
	}
	return runClosed(e, trace, seed, ops, rec, warm, measure)
}
