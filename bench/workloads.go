package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"time"

	"kaas"
	"kaas/internal/accel"
	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/cplane"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
)

// Payload size classes of the payload-* workloads.
var classBytes = [...]int{4 << 10, 64 << 10, 1 << 20}
var classNames = [...]string{"4k", "64k", "1m"}

// Tenants of tenants-overload; index 0 is "no tenant".
var tenantNames = [...]string{"", "aggressor", "victim-a", "victim-b"}

const aggressor = 1

// sloLimit is the victim latency limit of tenants-overload.
const sloLimit = 30 * time.Millisecond

// opSpec is one generated invocation. The program under test receives
// only what a spec generates: kernel name, tenant, params and payload.
type opSpec struct {
	kernel string
	tenant uint8         // index into tenantNames
	class  uint8         // 1+index into classBytes; 0 = header-only
	work   float64       // modeled device work
	due    time.Duration // open loop: arrival offset from schedule start
}

// workload is one named traffic mix and the platform it runs against.
type workload struct {
	name string
	why  string
	// open selects an arrival schedule at rate req/s; otherwise callers
	// goroutines each wait for a reply before sending the next request.
	open    bool
	rate    float64
	callers int
	// conns is the client's multiplexed connection count; 0 selects the
	// pooled one-request-per-connection transport behind cplane.Router.
	conns int
	scale float64
	// modelBand is the allowed range of model.share_of_wall: a workload
	// that leaves it no longer stresses what its "why" says.
	modelBand [2]float64
	profile   accel.Profile
	kernels   []string
	options   []kaas.Option
	// oob serves the arena (WithOutOfBand) so clients move bodies by lease.
	oob     bool
	cluster bool
	gen     func(rng *rand.Rand, n int) []opSpec
}

func constantOps(kernel string) func(*rand.Rand, int) []opSpec {
	return func(_ *rand.Rand, n int) []opSpec {
		ops := make([]opSpec, n)
		for i := range ops {
			ops[i].kernel = kernel
		}
		return ops
	}
}

// payloadOps deals size classes from shuffled decks of ten (5x 4 KiB,
// 4x 64 KiB, 1x 1 MiB), so every run moves the same bytes per op whatever
// the seed, and only the order varies.
func payloadOps(rng *rand.Rand, n int) []opSpec {
	deck := []uint8{1, 1, 1, 1, 1, 2, 2, 2, 2, 3}
	ops := make([]opSpec, 0, n+len(deck))
	for len(ops) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, c := range deck {
			ops = append(ops, opSpec{kernel: "probe", class: c})
		}
	}
	return ops[:n]
}

func churnKernels() []string {
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("k%02d", i)
	}
	return names
}

func churnOps(_ *rand.Rand, n int) []opSpec {
	names := churnKernels()
	ops := make([]opSpec, n)
	for i := range ops {
		ops[i].kernel = names[i%len(names)]
	}
	return ops
}

const overloadRate = 1300 // req/s, ~1.3x what the P100 model serves

// overloadOps is a Poisson arrival schedule; tenants come from shuffled
// decks of twelve (10 aggressor, 1 each victim) so the 10:1:1 mix is exact.
func overloadOps(rng *rand.Rand, n int) []opSpec {
	deck := []uint8{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3}
	ops := make([]opSpec, 0, n+len(deck))
	var at float64 // seconds
	for len(ops) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, t := range deck {
			at += rng.ExpFloat64() / overloadRate
			ops = append(ops, opSpec{
				kernel: "probe",
				tenant: t,
				work:   1.2e11 + rng.Float64()*0.8e11,
				due:    time.Duration(at * float64(time.Second)),
			})
		}
	}
	return ops[:n]
}

// nullScale is the time scale of the wall-only workloads: the model runs
// so fast that even the server's fixed 2 ms modeled routing cost is
// nanoseconds of wall.
const nullScale = 1e6

var workloads = []*workload{
	{
		name:      "null-mux",
		why:       "zero-cost kernel, 8 callers on 2 mux conns: wall time is middleware time (wire codec, client and server mux, warm Invoke)",
		callers:   8,
		conns:     2,
		scale:     nullScale,
		modelBand: [2]float64{0, 0.02},
		profile:   nulldev,
		kernels:   []string{"probe"},
		gen:       constantOps("probe"),
	},
	{
		name:      "payload-inband",
		why:       "4K/64K/1M bodies inside wire frames, no arena: body copies, frame-buffer pools and GC dominate",
		callers:   2,
		conns:     2,
		scale:     nullScale,
		modelBand: [2]float64{0, 0.02},
		profile:   nulldev,
		kernels:   []string{"probe"},
		gen:       payloadOps,
	},
	{
		name:      "payload-oob",
		why:       "same trace, bodies by arena lease handle: a lease-path change must show here and leave payload-inband flat",
		callers:   2,
		conns:     2,
		scale:     nullScale,
		modelBand: [2]float64{0, 0.02},
		profile:   nulldev,
		kernels:   []string{"probe"},
		oob:       true,
		gen:       payloadOps,
	},
	{
		name:      "cold-churn",
		why:       "32 kernels round-robin on 16 device slots: placement, eviction, cold start, artifact cache; wire is noise",
		callers:   2,
		conns:     2,
		scale:     1000,
		modelBand: [2]float64{0.4, 1},
		profile:   accel.TeslaP100,
		kernels:   churnKernels(),
		options:   []kaas.Option{kaas.WithArtifactCache(1 << 30)},
		gen:       churnOps,
	},
	{
		name:      "tenants-overload",
		why:       "open-loop Poisson at 1.3x device capacity, 10:1:1 tenants: WFQ, admission, batcher and clock timers do the work",
		open:      true,
		rate:      overloadRate,
		conns:     2,
		scale:     200,
		modelBand: [2]float64{0.4, 1},
		profile:   accel.TeslaP100,
		kernels:   []string{"probe"},
		options: []kaas.Option{
			kaas.WithTenantWeights(map[string]float64{"aggressor": 1, "victim-a": 1, "victim-b": 1}),
			kaas.WithTenantLimits(4, 16),
			kaas.WithAdmissionLimits(8, 0),
			kaas.WithMaxInFlight(8),
			kaas.WithBatching(20*time.Millisecond, 8),
		},
		gen: overloadOps,
	},
	{
		name:      "cluster-null",
		why:       "zero-cost kernel through cplane.Router and pooled v1 clients over 2 nodes: routing, gossip beside load, unloaded per-call overhead",
		callers:   2,
		scale:     nullScale,
		modelBand: [2]float64{0, 0.02},
		profile:   nulldev,
		kernels:   []string{"probe"},
		cluster:   true,
		gen:       constantOps("probe"),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// traceLen is how many ops a closed-loop trace holds before it repeats.
const traceLen = 1 << 12

// genTrace makes the workload's op sequence from the seed: traceLen ops
// for a closed loop (callers cycle through it), the whole schedule of
// span seconds for an open loop.
func genTrace(w *workload, seed int64, span time.Duration) []opSpec {
	n := traceLen
	if w.open {
		n = int(w.rate*span.Seconds()) + 1
	}
	ops := w.gen(rand.New(rand.NewSource(seed)), n)
	if w.open {
		for len(ops) > 0 && ops[len(ops)-1].due >= span {
			ops = ops[:len(ops)-1]
		}
	}
	return ops
}

// payloads holds one caller's request buffers, one per size class, filled
// from the seed when the class is first sent. Each request stamps its op
// number into the first word, so no two requests carry the same bytes and
// the expected checksum is the rest-of-buffer sum plus the stamp.
type payloads struct {
	seed    int64
	buf     [len(classBytes)][]byte
	restSum [len(classBytes)]uint64
	scratch []byte // expected result of a byte-for-byte comparison
}

// request returns the payload for an op and its checksum.
func (p *payloads) request(spec *opSpec, op uint64) ([]byte, uint64) {
	if spec.class == 0 {
		return nil, 0
	}
	c := spec.class - 1
	if p.buf[c] == nil {
		p.buf[c] = make([]byte, classBytes[c])
		rand.New(rand.NewSource(p.seed + int64(c))).Read(p.buf[c])
		p.restSum[c] = checksum(p.buf[c][8:])
		p.scratch = make([]byte, classBytes[len(classBytes)-1])
	}
	binary.LittleEndian.PutUint64(p.buf[c], op)
	return p.buf[c], p.restSum[c] + op
}

// env is a running platform plus the client side of one workload.
type env struct {
	w         *workload
	platforms []*kaas.Platform
	clients   []*kaas.Client
	observer  *cplane.Node
	router    *cplane.Router
	// inproc drives Server.Invoke directly (the ladder's core rung).
	inproc bool
}

// buildEnv starts the workload's platform in this process on TCP
// loopback and connects its clients. rec, when set, interposes the traced
// listener and arms the probe's spans.
func buildEnv(w *workload, rec *recorder) (*env, error) {
	e := &env{w: w}
	nodes := 1
	if w.cluster {
		nodes = 2
	}
	var seeds []string
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		if rec != nil {
			ln = &tracedListener{Listener: ln, rec: rec}
		}
		opts := []kaas.Option{
			kaas.WithTimeScale(w.scale),
			kaas.WithAccelerators(w.profile),
			kaas.WithListener(ln),
		}
		if w.conns > 0 {
			opts = append(opts, kaas.WithClientMux(w.conns))
		}
		if w.oob {
			opts = append(opts, kaas.WithOutOfBand(256<<20))
		}
		if w.cluster {
			opts = append(opts,
				kaas.WithHostName(fmt.Sprintf("node%d", i)),
				kaas.WithClusterNode(fmt.Sprintf("node%d", i), seeds...),
				kaas.WithClusterHeartbeat(clusterBeat, 5))
		}
		p, err := kaas.New(append(opts, w.options...)...)
		if err != nil {
			ln.Close()
			e.close()
			return nil, err
		}
		e.platforms = append(e.platforms, p)
		seeds = append(seeds, p.Addr())
		for _, name := range w.kernels {
			if err := p.Register(&probe{name: name, rec: rec}); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	if !w.cluster {
		c, err := e.platforms[0].NewClient()
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
		return e, nil
	}
	e.observer = cplane.NewNode(cplane.Config{
		Name:           "bench-observer",
		Clock:          vclock.Scaled(w.scale),
		HeartbeatEvery: clusterBeat,
		SuspectAfter:   5,
	})
	for _, addr := range seeds {
		e.observer.Join(addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.observer.WaitMembers(ctx, nodes); err != nil {
		e.close()
		return nil, err
	}
	e.router = cplane.NewRouter(cplane.RouterConfig{Node: e.observer})
	return e, nil
}

// clusterBeat is the gossip heartbeat of cluster-null: 10 000 modeled
// seconds at nullScale is one beat per 10 ms of wall per peer, so gossip
// runs beside the load.
const clusterBeat = 10000 * time.Second

func (e *env) close() {
	if e.router != nil {
		e.router.Close()
	}
	if e.observer != nil {
		e.observer.Close()
	}
	for _, c := range e.clients {
		c.Close()
	}
	for _, p := range e.platforms {
		p.Close()
	}
}

// invoke sends one op the way the workload's callers do.
func (e *env) invoke(ctx context.Context, spec *opSpec, params kernels.Params, data []byte) (*client.Result, error) {
	tenant := tenantNames[spec.tenant]
	switch {
	case e.inproc:
		resp, report, err := e.platforms[0].InvokeTenant(ctx, tenant, spec.kernel, params, data)
		if err != nil {
			return nil, err
		}
		return &client.Result{Values: resp.Values, Data: resp.Data, Cold: report.Cold, ServerTime: report.Total()}, nil
	case e.router != nil:
		return e.router.InvokeTenant(ctx, tenant, spec.kernel, params, data)
	default:
		return e.clients[0].InvokeTenantContext(ctx, tenant, spec.kernel, params, data)
	}
}

// stats sums the server statistics of every platform of the env.
func (e *env) stats() []core.Stats {
	out := make([]core.Stats, len(e.platforms))
	for i, p := range e.platforms {
		out[i] = p.Stats()
	}
	return out
}
