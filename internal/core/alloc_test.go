package core

import (
	"testing"

	"kaas/internal/accel"
	"kaas/internal/client"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
)

// nullProfile is a device whose model charges nothing: no init, launch or
// copy cost, and rates at which any work rounds to zero modeled time.
var nullProfile = accel.Profile{
	Name:          "null",
	Kind:          accel.GPU,
	ComputeRate:   1e30,
	CopyBandwidth: 1e30,
	Slots:         16,
	MemoryBytes:   16 << 30,
}

// nullKernel costs nothing and returns nothing.
type nullKernel struct{}

func (nullKernel) Name() string     { return "null" }
func (nullKernel) Kind() accel.Kind { return accel.GPU }
func (nullKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{}, nil
}
func (nullKernel) Execute(*kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{}, nil
}

// startNullTCP serves k over loopback TCP on one null device, with the
// model scaled so far down that a call's wall time is the middleware's.
func startNullTCP(t *testing.T, k kernels.Kernel) *TCPServer {
	t.Helper()
	clock := vclock.Scaled(1e6)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, nullProfile)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := New(Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	if err := srv.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tcp, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })
	return tcp
}

// TestWarmCallAllocationBudget pins what a warm header-only call
// allocates in client and server together, over a default client: one
// call at a time (every frame written inline) and eight at once (frames
// through both writer queues). The budget is the measured count, so one
// more allocation on the hot path fails it, even on only some of the
// eight calls; AllocsPerRun rounds down, so an occasional allocation (a
// pool emptied by GC) does not.
func TestWarmCallAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	tcp := startNullTCP(t, nullKernel{})
	cl := client.Dial(tcp.Addr())
	defer cl.Close()
	call := func() error {
		_, err := cl.Invoke("null", nil, nil)
		return err
	}
	// Warm up: both connections dialed, the runner booted, pools full.
	for i := 0; i < 200; i++ {
		if err := call(); err != nil {
			t.Fatalf("warm-up call: %v", err)
		}
	}

	const budget = 13
	sequential := testing.AllocsPerRun(200, func() {
		if err := call(); err != nil {
			t.Fatalf("call: %v", err)
		}
	})
	if sequential > budget {
		t.Errorf("one call at a time: %v allocs per call, want <= %d", sequential, budget)
	}

	const callers = 8
	start := make(chan struct{})
	done := make(chan error, callers)
	defer close(start)
	for i := 0; i < callers; i++ {
		go func() {
			for range start {
				done <- call()
			}
		}()
	}
	perRun := testing.AllocsPerRun(100, func() {
		for i := 0; i < callers; i++ {
			start <- struct{}{}
		}
		for i := 0; i < callers; i++ {
			if err := <-done; err != nil {
				t.Fatalf("call: %v", err)
			}
		}
	})
	if perRun > budget*callers {
		t.Errorf("%d calls at once: %v allocs, want <= %d", callers, perRun, budget*callers)
	}
	t.Logf("allocs per call: %v one at a time, %v with %d at once", sequential, perRun/callers, callers)
}
