package kaas

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/core"
	"kaas/internal/wire"
)

func newCluster(t *testing.T) *Cluster {
	t.Helper()
	gpuHost, err := New(WithHostName("gpu-node"), WithAccelerators(TeslaP100))
	if err != nil {
		t.Fatalf("New gpu host: %v", err)
	}
	fpgaHost, err := New(WithHostName("fpga-node"), WithAccelerators(AlveoU250))
	if err != nil {
		t.Fatalf("New fpga host: %v", err)
	}
	mixedHost, err := New(WithHostName("mixed-node"), WithAccelerators(TeslaP100, AlveoU250))
	if err != nil {
		t.Fatalf("New mixed host: %v", err)
	}
	c, err := NewCluster(gpuHost, fpgaHost, mixedHost)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(); err == nil {
		t.Error("empty cluster succeeded")
	}
	if _, err := NewCluster(nil); err == nil {
		t.Error("nil platform succeeded")
	}
}

func TestClusterRegisterByKindAvailability(t *testing.T) {
	c := newCluster(t)
	if c.Size() != 3 {
		t.Fatalf("Size = %d, want 3", c.Size())
	}
	// matmul (GPU) lands on hosts 0 and 2; histogram (FPGA) on 1 and 2.
	if err := c.RegisterByName("matmul"); err != nil {
		t.Fatalf("RegisterByName matmul: %v", err)
	}
	if err := c.RegisterByName("histogram"); err != nil {
		t.Fatalf("RegisterByName histogram: %v", err)
	}
	stats := c.Stats()
	if stats[0].Kernels != 1 || stats[1].Kernels != 1 || stats[2].Kernels != 2 {
		t.Errorf("kernels per host = %d/%d/%d, want 1/1/2",
			stats[0].Kernels, stats[1].Kernels, stats[2].Kernels)
	}
	if err := c.RegisterByName("nope"); err == nil {
		t.Error("unknown kernel succeeded")
	}
}

func TestClusterRoutesToServingHost(t *testing.T) {
	c := newCluster(t)
	if err := c.RegisterByName("histogram"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	resp, report, host, err := c.Invoke(context.Background(), "histogram", Params{"n": 10000}, nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if host != 1 && host != 2 {
		t.Errorf("histogram routed to host %d, want an FPGA host (1 or 2)", host)
	}
	if resp.Values["total"] != 10000 {
		t.Errorf("total = %v", resp.Values["total"])
	}
	if report == nil || report.Device == "" {
		t.Error("missing report")
	}
}

func TestClusterUnknownKernel(t *testing.T) {
	c := newCluster(t)
	if _, _, _, err := c.Invoke(context.Background(), "ghost", nil, nil); err == nil {
		t.Error("unregistered kernel succeeded")
	}
}

func TestClusterSpreadsConcurrentLoad(t *testing.T) {
	c := newCluster(t)
	if err := c.RegisterByName("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var mu sync.Mutex
	hosts := make(map[int]int)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, host, err := c.Invoke(context.Background(), "matmul", Params{"n": 4000}, nil)
			if err != nil {
				t.Errorf("Invoke: %v", err)
				return
			}
			mu.Lock()
			hosts[host]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Both GPU-bearing hosts (0 and 2) should have served work.
	if hosts[0] == 0 || hosts[2] == 0 {
		t.Errorf("load not spread across GPU hosts: %v", hosts)
	}
	if hosts[1] != 0 {
		t.Errorf("FPGA-only host served %d matmul invocations", hosts[1])
	}
}

func TestClusterFailsOverFromDrainingHost(t *testing.T) {
	a, err := New(WithHostName("node-a"), WithAccelerators(TeslaP100))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b, err := New(WithHostName("node-b"), WithAccelerators(TeslaP100))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()
	c, err := NewCluster(a, b)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := c.RegisterByName("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	ctx := context.Background()
	// Drain host 0: it rejects new work with ErrDraining, so the cluster
	// must reroute every subsequent invocation to host 1.
	shutdownCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := a.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < 4; i++ {
		_, _, host, err := c.Invoke(ctx, "mci", Params{"n": 1000}, nil)
		if err != nil {
			t.Fatalf("Invoke after drain: %v", err)
		}
		if host != 1 {
			t.Errorf("invocation served by host %d, want failover to 1", host)
		}
	}
}

func TestClusterAllHostsDownSurfacesTypedError(t *testing.T) {
	a, err := New(WithHostName("solo"), WithAccelerators(TeslaP100))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c, err := NewCluster(a)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := c.RegisterByName("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	_, _, _, err = c.Invoke(context.Background(), "mci", Params{"n": 1000}, nil)
	if !errors.Is(err, core.ErrServerClosed) {
		t.Errorf("Invoke on fully-drained cluster = %v, want ErrServerClosed", err)
	}
}

// TestClusterSkipsBreakerOpenHost: a host whose every device of the
// kernel's kind is excluded by an open circuit breaker must be
// ineligible for routing — not merely failed over from after receiving
// its least-loaded share. Before the Routable check in pick, host 0
// kept receiving (and failing) invocations here; now its invocation
// counter stays frozen while host 1 serves everything.
func TestClusterSkipsBreakerOpenHost(t *testing.T) {
	// Breaker: one failure opens, and the open timeout is hours of
	// modeled time so it cannot half-open during the test.
	opts := []Option{WithAccelerators(TeslaP100), WithBreaker(1, 12*time.Hour)}
	p0, err := New(append([]Option{WithHostName("sick")}, opts...)...)
	if err != nil {
		t.Fatalf("New p0: %v", err)
	}
	p1, err := New(append([]Option{WithHostName("healthy")}, opts...)...)
	if err != nil {
		t.Fatalf("New p1: %v", err)
	}
	c, err := NewCluster(p0, p1)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterByName("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	ctx := context.Background()
	// Fail host 0's only GPU and invoke it directly: the failure is
	// recorded as breaker evidence and (threshold 1) opens the breaker.
	gpus := p0.host.DevicesByKind(GPU)
	if len(gpus) != 1 {
		t.Fatalf("host 0 has %d GPUs, want 1", len(gpus))
	}
	gpus[0].Fail()
	if _, _, err := p0.Invoke(ctx, "mci", Params{"n": 1000}, nil); err == nil {
		t.Fatal("Invoke on failed device succeeded")
	}
	// Repair the device: now only the open breaker excludes it.
	gpus[0].Repair()
	if p0.server.Routable("mci") {
		t.Fatal("host 0 routable with its only GPU breaker open")
	}

	before := p0.Stats().PerKernel["mci"].Invocations
	for i := 0; i < 6; i++ {
		_, _, host, err := c.Invoke(ctx, "mci", Params{"n": 1000}, nil)
		if err != nil {
			t.Fatalf("Invoke %d: %v", i, err)
		}
		if host != 1 {
			t.Errorf("invocation %d served by host %d, want 1", i, host)
		}
	}
	if after := p0.Stats().PerKernel["mci"].Invocations; after != before {
		t.Errorf("breaker-open host received %d invocations", after-before)
	}
}

// TestClusterSharesCompiledArtifacts: a kernel JIT-compiled during a cold
// start on one cluster member is seeded into its peers' caches, so the
// peer's first boot of the same kernel is cached-cold — it skips
// compilation entirely.
func TestClusterSharesCompiledArtifacts(t *testing.T) {
	opts := []Option{WithTimeScale(5000), WithArtifactCache(64 << 20)}
	p1, err := New(append([]Option{WithHostName("node-1")}, opts...)...)
	if err != nil {
		t.Fatalf("New p1: %v", err)
	}
	p2, err := New(append([]Option{WithHostName("node-2")}, opts...)...)
	if err != nil {
		t.Fatalf("New p2: %v", err)
	}
	c, err := NewCluster(p1, p2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterByName("matmul"); err != nil {
		t.Fatalf("RegisterByName: %v", err)
	}

	_, r1, err := p1.Invoke(context.Background(), "matmul", Params{"n": 32}, nil)
	if err != nil {
		t.Fatalf("Invoke on node-1: %v", err)
	}
	if !r1.Cold || r1.CachedCold {
		t.Errorf("node-1 first boot: Cold=%v CachedCold=%v, want a plain cold start", r1.Cold, r1.CachedCold)
	}

	_, r2, err := p2.Invoke(context.Background(), "matmul", Params{"n": 32}, nil)
	if err != nil {
		t.Fatalf("Invoke on node-2: %v", err)
	}
	if !r2.Cold || !r2.CachedCold {
		t.Errorf("node-2 first boot: Cold=%v CachedCold=%v, want cached-cold via the seeded artifact", r2.Cold, r2.CachedCold)
	}
	st := p2.Stats()
	if st.ArtifactCache == nil || st.ArtifactCache.Seeded != 1 {
		t.Fatalf("node-2 cache stats = %+v, want 1 seeded artifact", st.ArtifactCache)
	}
	if ks := st.PerKernel["matmul"]; ks.CacheHits != 1 || ks.CacheMisses != 0 {
		t.Errorf("node-2 cache hits/misses = %d/%d, want 1/0", ks.CacheHits, ks.CacheMisses)
	}
}

// TestClusterReroutesWhatRouterRedispatches: the in-process cluster fails
// a host error over exactly when cplane.Router would re-dispatch the
// RemoteError the wire makes of it — wire.Retryable of its code, the
// router's rule for typed errors (TestRedispatchableFollowsWireRetryable).
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
		err := fmt.Errorf("kaas: host 0: %w", tc.err)
		if got := reroutable(err); got != tc.want {
			t.Errorf("Cluster reroutes %v: %v, want %v", tc.err, got, tc.want)
		}
		if code := core.ErrorCode(err); wire.Retryable(code) != tc.want {
			t.Errorf("Router re-dispatches %v (%s): %v, want %v", tc.err, code, !tc.want, tc.want)
		}
	}
}
