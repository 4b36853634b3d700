package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"time"

	"kaas/internal/accel"
	"kaas/internal/artifact"
	"kaas/internal/breaker"
	"kaas/internal/client"
	"kaas/internal/kernels"
	"kaas/internal/metrics"
	"kaas/internal/shm"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// The layer ladder replays the workload's own seeded inputs through each
// layer's public functions in isolation, one rung at a time, outside in:
// Router.Invoke, Client.Invoke/List, Server.Invoke, wire.Append/Read, the
// device model, the clock, the arena, the artifact cache, the breaker, the
// histogram and the probe kernel. A rung's self time is its own figure
// minus the rung below it.

// timeLoop calls f(i) until budget has passed (at least minIters times)
// and returns each call's duration in microseconds.
func timeLoop(budget time.Duration, minIters int, f func(i int)) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		f(i)
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out
}

// meanLoop calls f(i) until budget has passed and returns the mean
// nanoseconds per call and mean allocations per call, for rungs too short
// to time one call at a time.
func meanLoop(budget time.Duration, f func(i int)) (nsPerOp, allocsPerOp float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	n := 0
	for time.Since(start) < budget {
		for k := 0; k < 64; k++ {
			f(n)
			n++
		}
	}
	took := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(took) / float64(n), float64(ms.Mallocs-mallocs) / float64(n)
}

// wireOpUs keys the codec cost of one whole op in the ladder's output. It
// feeds trace.unattributed_share and is not itself a declared metric.
const wireOpUs = "wire.op_us"

// ladderOps is how many ops of the trace the codec, kernel and device
// rungs cycle through: two decks of the payload mix. More would only grow
// the live heap under the rungs, and fresh pages cost more than the codec.
const ladderOps = 20

// ladderInputs are the workload's first ladderOps requests as the layers
// see them.
type ladderInputs struct {
	specs   []opSpec
	reqs    []*kernels.Request // what the kernel receives
	request []*wire.Message    // what the client encodes
	reply   []*wire.Message    // what the server encodes
}

func newLadderInputs(w *workload, trace []opSpec, seed int64) *ladderInputs {
	in := &ladderInputs{specs: trace[:min(ladderOps, len(trace))]}
	pay := payloads{seed: seed}
	version := uint8(wire.Version)
	if w.conns > 0 {
		version = wire.VersionMux
	}
	for i := range in.specs {
		spec := &in.specs[i]
		op := uint64(i + 1)
		data, sum := pay.request(spec, op)
		data = bytes.Clone(data) // the payload buffer is restamped per op
		params := kernels.Params{"op": float64(op), "work": spec.work}
		in.reqs = append(in.reqs, &kernels.Request{Params: params, Data: data, Tenant: tenantNames[spec.tenant]})

		req := &wire.Message{Type: wire.MsgInvoke, Version: version, Header: wire.Header{
			Kernel: spec.kernel, Params: params, Tenant: tenantNames[spec.tenant]}}
		rep := &wire.Message{Type: wire.MsgResult, Version: version, Header: wire.Header{
			Values:        map[string]float64{"sum": float64(expectedSum(sum, op))},
			InvocationID:  fmt.Sprintf("inv-%d", 100000+op),
			DurationNanos: int64(2 * time.Millisecond),
		}}
		if w.conns > 0 {
			req.Header.StreamID, rep.Header.StreamID = 100000+op, 100000+op
		}
		switch {
		case len(data) == 0:
		case w.oob:
			// The body moves by lease handle; the frames carry its name.
			req.Header.LeaseID, req.Header.LeaseLen = 7, int64(len(data))
			rep.Header.LeaseID, rep.Header.LeaseResultLen = 7, int64(len(data))
		default:
			req.Body = data
			rep.Body = make([]byte, len(data))
			scaleInto(rep.Body, data)
		}
		in.request = append(in.request, req)
		in.reply = append(in.reply, rep)
	}
	return in
}

// runLadder measures every rung for about rungBudget of wall time each
// and stores the figures under their per-layer metric names.
func runLadder(w *workload, trace []opSpec, seed int64, rungBudget time.Duration, out map[string]float64) error {
	in := newLadderInputs(w, trace, seed)
	n := len(in.specs)

	// wire: encode and decode the workload's own request and reply frames.
	msgs := append(append([]*wire.Message{}, in.request...), in.reply...)
	frames := make([][]byte, len(msgs))
	var headerBytes, frameBytes float64
	for i, m := range msgs {
		f, err := wire.Append(nil, m)
		if err != nil {
			return fmt.Errorf("ladder wire: %w", err)
		}
		frames[i] = f
		headerBytes += float64(binary.BigEndian.Uint32(f[6:10]))
		frameBytes += float64(len(f))
	}
	var buf []byte
	encNs, encAllocs := meanLoop(rungBudget, func(i int) { buf, _ = wire.Append(buf[:0], msgs[i%len(msgs)]) })
	var rd bytes.Reader
	decNs, decAllocs := meanLoop(rungBudget, func(i int) {
		rd.Reset(frames[i%len(frames)])
		wire.Read(&rd)
	})
	out["wire.encode_ns"] = encNs
	out["wire.decode_ns"] = decNs
	out["wire.allocs_per_msg"] = encAllocs + decAllocs
	out["wire.header_bytes"] = headerBytes / float64(len(msgs))
	out["wire.frame_bytes"] = frameBytes / float64(len(msgs))
	// What the codec costs one op: request and reply, each encoded once and
	// decoded once. A median like the invoke rungs it is set against, so on
	// a payload mix it describes the same (middle) op they do.
	perOp := timeLoop(rungBudget, 32, func(i int) {
		for _, j := range [2]int{i % n, n + i%n} {
			buf, _ = wire.Append(buf[:0], msgs[j])
			rd.Reset(frames[j])
			wire.Read(&rd)
		}
	})
	out[wireOpUs] = median(perOp)

	// kernels: the probe itself, which must stay a small, flat share.
	k := &probe{name: "probe"}
	out["kernels.cost_ns"], _ = meanLoop(rungBudget/2, func(i int) { k.Cost(in.reqs[i%n]) })
	out["kernels.execute_ns"], _ = meanLoop(rungBudget/2, func(i int) { k.Execute(in.reqs[i%n]) })

	// core: Server.Invoke in process on a fresh platform of the same
	// configuration, one caller.
	e, err := buildEnv(w, nil)
	if err != nil {
		return fmt.Errorf("ladder env: %w", err)
	}
	defer e.close()
	inproc := *e
	inproc.inproc = true
	var ops opCounter
	// invokeLoop times one caller sending the trace's ops through an env,
	// after enough untimed ops that every kernel has booted once.
	invokeLoop := func(e *env, budget time.Duration) ([]float64, float64, error) {
		c := newCaller(e, seed, 0)
		next := func(int) {
			op := ops.Add(1)
			c.do(op, &trace[(op-1)%uint64(len(trace))])
		}
		for i := 0; i < 2*len(w.kernels)+8; i++ {
			next(i)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		took := timeLoop(budget, 32, next)
		runtime.ReadMemStats(&ms)
		return took, float64(ms.Mallocs-mallocs) / float64(len(took)), c.mismatch
	}
	invoke, allocs, err := invokeLoop(&inproc, 3*rungBudget)
	if err != nil {
		return fmt.Errorf("ladder core: %w", err)
	}
	out["core.invoke_inproc_us"] = median(invoke)
	out["core.invoke_inproc_allocs"] = allocs

	// client: a List round trip over the workload's transport is the
	// floor any invocation pays for sockets, framing and demultiplexing.
	var cl *client.Client
	if w.cluster {
		cl = client.Dial(e.platforms[0].Addr())
		defer cl.Close()
	} else {
		cl = e.clients[0]
	}
	var listErr error
	list := timeLoop(rungBudget, 32, func(int) {
		if _, err := cl.List(); err != nil {
			listErr = err
		}
	})
	if listErr != nil {
		return fmt.Errorf("ladder client: %w", listErr)
	}
	out["client.list_rtt_us"] = median(list)

	// cplane: Router.Invoke against a direct pooled client, on a two-node
	// cluster serving this workload's ops.
	cw := *w
	cw.cluster, cw.conns, cw.oob = true, 0, false
	ce, err := buildEnv(&cw, nil)
	if err != nil {
		return fmt.Errorf("ladder cluster: %w", err)
	}
	defer ce.close()
	direct := client.Dial(ce.platforms[0].Addr())
	defer direct.Close()
	routed, _, err := invokeLoop(ce, rungBudget)
	if err != nil {
		return fmt.Errorf("ladder cplane: %w", err)
	}
	unrouted, _, err := invokeLoop(&env{w: &cw, clients: []*client.Client{direct}}, rungBudget)
	if err != nil {
		return fmt.Errorf("ladder cplane: %w", err)
	}
	out["cplane.route_self_us"] = median(routed) - median(unrouted)

	// The whole call, unloaded: one caller over the workload's own
	// transport. The rungs above should add up to it; the loaded root
	// span's excess over it is queueing for CPU, sockets and the device.
	unloaded := routed
	if !w.cluster {
		if unloaded, _, err = invokeLoop(e, rungBudget); err != nil {
			return fmt.Errorf("ladder client: %w", err)
		}
	}
	out["client.invoke_unloaded_us"] = median(unloaded)

	// accel and vclock: the device model at the workload's scale and cost.
	clock := vclock.Scaled(w.scale)
	dev, err := accel.NewDevice(clock, "ladder", w.profile)
	if err != nil {
		return fmt.Errorf("ladder accel: %w", err)
	}
	defer dev.Close()
	ctx := context.Background()
	var dctx *accel.Context
	acquire := timeLoop(rungBudget, 4, func(int) {
		if dctx != nil {
			dctx.Release()
		}
		dctx, err = dev.Acquire(ctx)
	})
	if err != nil {
		return fmt.Errorf("ladder accel: %w", err)
	}
	defer dctx.Release()
	out["accel.acquire_wall_us"] = median(acquire)
	var modeled []float64
	exec := timeLoop(rungBudget, 16, func(i int) {
		cost, _ := k.Cost(in.reqs[i%n])
		cin, _ := dctx.Copy(ctx, cost.BytesIn)
		ex, _ := dctx.Exec(ctx, cost.Work)
		cout, _ := dctx.Copy(ctx, cost.BytesOut)
		modeled = append(modeled, float64(cin+ex+cout)/w.scale/1e3)
	})
	out["accel.exec_wall_us"] = median(exec)
	out["accel.exec_modeled_us"] = median(modeled)
	out["accel.wall_over_model_us"] = out["accel.exec_wall_us"] - out["accel.exec_modeled_us"]

	// The server sleeps routingSleep of modeled time on every invocation
	// and arms batch and scheduler timers around batchTimer.
	const routingSleep, batchTimer = 2 * time.Millisecond, 20 * time.Millisecond
	sleeps := timeLoop(rungBudget/2, 16, func(int) { clock.Sleep(routingSleep) })
	out["vclock.sleep_overshoot_us"] = median(sleeps) - float64(routingSleep)/w.scale/1e3
	fired := make(chan time.Time, 1)
	var late []float64
	timeLoop(rungBudget/2, 16, func(int) {
		t0 := time.Now()
		clock.AfterFunc(batchTimer, func() { fired <- time.Now() })
		late = append(late, float64((<-fired).Sub(t0))/1e3-float64(batchTimer)/w.scale/1e3)
	})
	out["vclock.afterfunc_late_us"] = median(late)

	// shm: a lease's life (grant, revoke, slab back on the free list) and
	// the key-based registry, at the workload's payload sizes.
	pool := shm.NewArenaPool(256 << 20)
	size := func(i int) int64 { return int64(max(len(in.reqs[i%n].Data), shm.MinLeaseBytes)) }
	out["shm.acquire_release_ns"], _ = meanLoop(rungBudget/2, func(i int) {
		if l, err := pool.Acquire(size(i)); err == nil {
			pool.Revoke(l.ID())
		}
	})
	reg := shm.NewRegistry(1 << 30)
	region := make([]byte, 1<<20)
	out["shm.registry_create_get_delete_ns"], _ = meanLoop(rungBudget/2, func(i int) {
		if key, err := reg.Create(region[:size(i)]); err == nil {
			reg.Get(key)
			reg.Delete(key)
		}
	})

	// artifact and breaker: what a cold start consults.
	cache := artifact.NewCache(1 << 30)
	keys := make([]artifact.Key, len(w.kernels))
	for i, name := range w.kernels {
		keys[i] = artifact.KeyFor(name, accel.GPU.String(), "ladder")
		cache.Store(&artifact.Artifact{Key: keys[i], Kernel: name, Size: 8 << 20})
	}
	out["artifact.lookup_ns"], _ = meanLoop(rungBudget/2, func(i int) { cache.Lookup(keys[i%len(keys)]) })
	brk := breaker.NewSet(breaker.Config{Clock: clock})
	out["breaker.allow_record_ns"], _ = meanLoop(rungBudget/2, func(int) {
		if brk.Allow("gpu0") {
			brk.RecordSuccess("gpu0")
		}
	})

	// metrics: one histogram observation, and a scrape of a platform that
	// has served the ops above.
	h := metrics.NewLatencyHistogram()
	out["metrics.observe_ns"], _ = meanLoop(rungBudget/2, func(i int) { h.Observe(time.Duration(i%1000) * time.Millisecond) })
	scrape := timeLoop(rungBudget/2, 4, func(int) { e.platforms[0].WriteMetrics(io.Discard) })
	out["metrics.write_prometheus_us"] = median(scrape)
	return nil
}
