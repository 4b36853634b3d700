package kaas

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/core"
	"kaas/internal/cplane"
	"kaas/internal/wire"
)

// Federation is kaasd nodes joined by internal/cplane, with a
// cplane.Router dispatching over the wire. These tests drive real
// platforms through an observer-backed router and read each node's own
// counters to see where the work landed.

// newRouterNode builds a wire-serving cluster node.
func newRouterNode(t *testing.T, name string, opts ...Option) *Platform {
	t.Helper()
	base := []Option{WithHostName(name), WithListenAddr("127.0.0.1:0"), WithClusterNode(name)}
	p, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatalf("New %s: %v", name, err)
	}
	t.Cleanup(p.Close)
	return p
}

// newObserverRouter joins an observer node to the platforms, waits until
// each has gossiped, and returns a router over it. The observer beats
// every 20 ms of wall time, so health changes reach it quickly. Every
// kernel these tests run is pure, so the router may re-dispatch a call
// whose connection failed.
func newObserverRouter(t *testing.T, nodes ...*Platform) (*cplane.Router, *cplane.Node) {
	t.Helper()
	obs := cplane.NewNode(cplane.Config{Name: "router", HeartbeatEvery: 20 * time.Millisecond})
	t.Cleanup(obs.Close)
	for _, p := range nodes {
		obs.Join(p.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := obs.WaitMembers(ctx, len(nodes)); err != nil {
		t.Fatalf("WaitMembers: %v", err)
	}
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs, Idempotent: true})
	t.Cleanup(r.Close)
	return r, obs
}

// waitMember polls the observer's view of the member at addr until cond
// holds or a wall deadline expires.
func waitMember(t *testing.T, obs *cplane.Node, addr, what string, cond func(cplane.Member) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, m := range obs.Members() {
			if m.Addr == addr && cond(m) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// register registers the kernel through the router and waits until the
// observer's gossip lists it on each of the given serving nodes, so a
// heartbeat sent before the registration cannot hide it from the pick.
func register(t *testing.T, r *cplane.Router, obs *cplane.Node, kernel string, serving ...*Platform) {
	t.Helper()
	if err := r.Register(context.Background(), kernel); err != nil {
		t.Fatalf("Register %s: %v", kernel, err)
	}
	for _, p := range serving {
		waitMember(t, obs, p.Addr(), kernel+" gossiped", func(m cplane.Member) bool {
			return m.Alive && slices.Contains(m.Kernels, kernel)
		})
	}
}

func invocations(p *Platform, kernel string) uint64 {
	return p.Stats().PerKernel[kernel].Invocations
}

// newKindNodes builds a GPU-only and an FPGA-only node behind a router
// and registers matmul (GPU) and histogram (FPGA) through it.
func newKindNodes(t *testing.T) (r *cplane.Router, gpu, fpga *Platform) {
	t.Helper()
	gpu = newRouterNode(t, "gpu-node", WithAccelerators(TeslaP100))
	fpga = newRouterNode(t, "fpga-node", WithAccelerators(AlveoU250))
	r, obs := newObserverRouter(t, gpu, fpga)
	register(t, r, obs, "matmul", gpu)
	register(t, r, obs, "histogram", fpga)
	return r, gpu, fpga
}

// TestClusterRegisterByKindAvailability: registering through the router
// deploys a kernel only on the nodes with a device of its kind, and a
// kernel the library does not know registers nowhere.
func TestClusterRegisterByKindAvailability(t *testing.T) {
	r, gpu, fpga := newKindNodes(t)
	if got := gpu.Kernels(); !slices.Equal(got, []string{"matmul"}) {
		t.Errorf("GPU node kernels = %v, want [matmul]", got)
	}
	if got := fpga.Kernels(); !slices.Equal(got, []string{"histogram"}) {
		t.Errorf("FPGA node kernels = %v, want [histogram]", got)
	}
	if err := r.Register(context.Background(), "nope"); err == nil {
		t.Error("registering an unknown kernel succeeded")
	}
}

// TestClusterRoutesToServingHost: each kernel lands only on the node
// that has a device of its kind.
func TestClusterRoutesToServingHost(t *testing.T) {
	r, gpu, fpga := newKindNodes(t)

	ctx := context.Background()
	const calls = 3
	for i := 0; i < calls; i++ {
		res, err := r.Invoke(ctx, "histogram", Params{"n": 10000}, nil)
		if err != nil {
			t.Fatalf("Invoke histogram: %v", err)
		}
		if res.Values["total"] != 10000 {
			t.Errorf("histogram total = %v, want 10000", res.Values["total"])
		}
		if _, err := r.Invoke(ctx, "matmul", Params{"n": 64}, nil); err != nil {
			t.Fatalf("Invoke matmul: %v", err)
		}
	}
	if got := invocations(fpga, "histogram"); got != calls {
		t.Errorf("FPGA node served %d histogram calls, want %d", got, calls)
	}
	if got := invocations(gpu, "matmul"); got != calls {
		t.Errorf("GPU node served %d matmul calls, want %d", got, calls)
	}
	if got := invocations(gpu, "histogram") + invocations(fpga, "matmul"); got != 0 {
		t.Errorf("%d calls landed on a node without a device of their kind", got)
	}
}

// TestClusterUnknownKernel: a kernel registered nowhere fails through
// the router.
func TestClusterUnknownKernel(t *testing.T) {
	r, _, _ := newKindNodes(t)
	if _, err := r.Invoke(context.Background(), "ghost", nil, nil); err == nil {
		t.Error("unregistered kernel succeeded")
	}
}

// TestClusterFailsOverFromDrainingHost: a node that has shut down
// gracefully rejects new work, so the router hands every call to the
// other node. The router breaks load ties by node name, so without the
// failover it would pick the drained node first.
func TestClusterFailsOverFromDrainingHost(t *testing.T) {
	a := newRouterNode(t, "node-a", WithAccelerators(TeslaP100))
	b := newRouterNode(t, "node-b", WithAccelerators(TeslaP100))
	r, obs := newObserverRouter(t, a, b)
	register(t, r, obs, "mci", a, b)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	const calls = 4
	for i := 0; i < calls; i++ {
		if _, err := r.Invoke(ctx, "mci", Params{"n": 1000}, nil); err != nil {
			t.Fatalf("Invoke %d after drain: %v", i, err)
		}
	}
	if got := invocations(a, "mci"); got != 0 {
		t.Errorf("drained node served %d invocations", got)
	}
	if got := invocations(b, "mci"); got != calls {
		t.Errorf("surviving node served %d of %d invocations", got, calls)
	}
}

// TestClusterReroutesWhatRouterRedispatches: the errors a platform
// raises reach the router as wire codes, and the router moves a call to
// another node exactly for the transient ones — shed, draining, closed,
// no usable device — never for a deadline or a caller's mistake.
func TestClusterReroutesWhatRouterRedispatches(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{ErrOverloaded, true},
		{ErrDraining, true},
		{core.ErrServerClosed, true},
		{ErrUnavailable, true},
		{fmt.Errorf("core: failover exhausted after 3 attempts for %q: %w", "mci", accel.ErrDeviceFailed), true},
		{accel.ErrContextReleased, true},
		{context.DeadlineExceeded, false},
		{context.Canceled, false},
		{core.ErrUnknownKernel, false},
		{core.ErrNoDevice, false},
		{errors.New("kernel: bad n"), false},
	} {
		err := fmt.Errorf("kaas: node a: %w", tc.err)
		if code := core.ErrorCode(err); wire.Retryable(code) != tc.want {
			t.Errorf("Router re-dispatches %v (%s): %v, want %v", tc.err, code, !tc.want, tc.want)
		}
	}
}

// TestClusterSkipsBreakerOpenHost: once gossip shows a node with no
// eligible GPU (its only GPU's breaker is open), the router sends that
// node no GPU work at all, rather than failing over from it per call.
func TestClusterSkipsBreakerOpenHost(t *testing.T) {
	// One failure opens the breaker, and the open timeout is hours of
	// modeled time so it cannot half-open during the test.
	opts := []Option{WithAccelerators(TeslaP100), WithBreaker(1, 12*time.Hour)}
	// The router breaks load ties by node name, so unless it skips the
	// sick node it picks it first.
	sick := newRouterNode(t, "node-a", opts...)
	healthy := newRouterNode(t, "node-b", opts...)
	r, obs := newObserverRouter(t, sick, healthy)
	register(t, r, obs, "mci", sick, healthy)

	ctx := context.Background()
	// Fail the sick node's only GPU and invoke it in process: the failure
	// is breaker evidence and (threshold 1) opens the breaker. Repair the
	// device, so only the open breaker excludes it.
	gpus := sick.host.DevicesByKind(GPU)
	if len(gpus) != 1 {
		t.Fatalf("sick node has %d GPUs, want 1", len(gpus))
	}
	gpus[0].Fail()
	if _, _, err := sick.Invoke(ctx, "mci", Params{"n": 1000}, nil); err == nil {
		t.Fatal("Invoke on a failed device succeeded")
	}
	gpus[0].Repair()
	waitMember(t, obs, sick.Addr(), "gossip of the open breaker", func(m cplane.Member) bool {
		return m.Eligible["GPU"] == 0
	})

	sickBefore, healthyBefore := invocations(sick, "mci"), invocations(healthy, "mci")
	const calls = 6
	for i := 0; i < calls; i++ {
		if _, err := r.Invoke(ctx, "mci", Params{"n": 1000}, nil); err != nil {
			t.Fatalf("Invoke %d: %v", i, err)
		}
	}
	if got := invocations(sick, "mci") - sickBefore; got != 0 {
		t.Errorf("breaker-open node received %d invocations", got)
	}
	if got := invocations(healthy, "mci") - healthyBefore; got != calls {
		t.Errorf("healthy node served %d of %d invocations", got, calls)
	}
	if st := r.Stats(); st.Redispatches != 0 {
		t.Errorf("router re-dispatched %d calls: the sick node was picked, not skipped", st.Redispatches)
	}
}

// TestClusterSpreadsConcurrentLoad: concurrent calls go to the least
// loaded node, so eight at once reach both GPU nodes.
func TestClusterSpreadsConcurrentLoad(t *testing.T) {
	a := newRouterNode(t, "gpu-a", WithAccelerators(TeslaP100))
	b := newRouterNode(t, "gpu-b", WithAccelerators(TeslaP100))
	r, obs := newObserverRouter(t, a, b)
	register(t, r, obs, "matmul", a, b)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Invoke(context.Background(), "matmul", Params{"n": 4000}, nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	na, nb := invocations(a, "matmul"), invocations(b, "matmul")
	if na == 0 || nb == 0 || na+nb != 8 {
		t.Errorf("calls per node = %d/%d, want 8 spread over both", na, nb)
	}
}
