package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"kaas/internal/accel"
	"kaas/internal/client"
	"kaas/internal/kernels"
	"kaas/internal/shm"
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
func startNullTCP(t testing.TB, k kernels.Kernel, opts ...TCPOption) *TCPServer {
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
	tcp, err := ServeTCP(srv, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })
	return tcp
}

// sumKernel answers like the benchmark's probe kernel: one value computed
// from a param, in a fresh map.
type sumKernel struct{}

func (sumKernel) Name() string     { return "sum" }
func (sumKernel) Kind() accel.Kind { return accel.GPU }
func (sumKernel) Cost(req *kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{Work: req.Params["work"]}, nil
}
func (sumKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{Values: map[string]float64{"sum": req.Params["op"] + 1}}, nil
}

// sumDataKernel answers like the benchmark's probe kernel on a payload
// call: one value from a param and the payload, in a fresh map, and a
// fresh copy of the payload.
type sumDataKernel struct{}

func (sumDataKernel) Name() string     { return "sumdata" }
func (sumDataKernel) Kind() accel.Kind { return accel.GPU }
func (sumDataKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{}, nil
}
func (sumDataKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	out := make([]byte, len(req.Data))
	copy(out, req.Data)
	return &kernels.Response{
		Values: map[string]float64{"sum": req.Params["op"] + float64(req.Data[0])},
		Data:   out,
	}, nil
}

// TestWarmCallAllocationBudget pins what a warm call allocates in client
// and server together: one call at a time (every frame written inline)
// and eight at once (frames through both writer queues). Each row's
// budget is its measured count, so one more allocation on the hot path
// fails it, even on only some of the eight calls; AllocsPerRun rounds
// down, so an occasional allocation (a pool emptied by GC) does not.
// The "params" row is shaped like the benchmark's null-mux call: two
// params in, a fresh one-value map back, which the client hands to its
// caller. The "leased" row is shaped like payload-oob: the same call
// with a 4 KiB body moved through an arena lease, and a 4 KiB result the
// client copies out of the window.
func TestWarmCallAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	rows := []struct {
		name   string
		kernel kernels.Kernel
		params bool
		body   int // payload bytes, sent by lease
		budget float64
	}{
		{"no params", nullKernel{}, false, 0, 6},
		{"params", sumKernel{}, true, 0, 9},
		{"leased", sumDataKernel{}, true, 4 << 10, 11},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var srvOpts []TCPOption
			var opts []client.Option
			if row.body > 0 {
				arena := shm.NewArenaPool(1 << 20)
				srvOpts, opts = []TCPOption{WithArenaPool(arena)}, []client.Option{client.WithArena(arena)}
			}
			tcp := startNullTCP(t, row.kernel, srvOpts...)
			cl := client.Dial(tcp.Addr(), opts...)
			defer cl.Close()
			name := row.kernel.Name()
			// call reuses its caller's params map and payload, as the
			// benchmark's callers do: the client is done with both when the
			// call returns.
			type caller struct {
				p    kernels.Params
				data []byte
			}
			newCaller := func() *caller {
				c := &caller{p: kernels.Params{}}
				if row.body > 0 {
					c.data = make([]byte, row.body)
				}
				return c
			}
			call := func(c *caller, op int) error {
				if !row.params {
					_, err := cl.Invoke(name, nil, nil)
					return err
				}
				c.p["op"], c.p["work"] = float64(op), 0
				want := float64(op + 1)
				if c.data != nil {
					c.data[0], c.data[len(c.data)-1] = 1, byte(op)
				}
				res, err := cl.Invoke(name, c.p, c.data)
				if err != nil {
					return err
				}
				if res.Values["sum"] != want {
					return fmt.Errorf("op %d: values %v", op, res.Values)
				}
				if !bytes.Equal(res.Data, c.data) {
					return fmt.Errorf("op %d: %d result bytes, not the %d sent", op, len(res.Data), len(c.data))
				}
				return nil
			}
			seq := newCaller()
			// Warm up: both connections dialed, the runner booted, pools
			// full, leases granted.
			for i := 0; i < 200; i++ {
				if err := call(seq, i); err != nil {
					t.Fatalf("warm-up call: %v", err)
				}
			}

			op := 0
			sequential := testing.AllocsPerRun(200, func() {
				op++
				if err := call(seq, op); err != nil {
					t.Fatalf("call: %v", err)
				}
			})
			if sequential > row.budget {
				t.Errorf("one call at a time: %v allocs per call, want <= %v", sequential, row.budget)
			}

			const callers = 8
			start := make(chan int)
			done := make(chan error, callers)
			defer close(start)
			for i := 0; i < callers; i++ {
				go func() {
					c := newCaller()
					for op := range start {
						done <- call(c, op)
					}
				}()
			}
			perRun := testing.AllocsPerRun(100, func() {
				for i := 0; i < callers; i++ {
					op++
					start <- op
				}
				for i := 0; i < callers; i++ {
					if err := <-done; err != nil {
						t.Fatalf("call: %v", err)
					}
				}
			})
			if perRun > row.budget*callers {
				t.Errorf("%d calls at once: %v allocs, want <= %v", callers, perRun, row.budget*callers)
			}
			t.Logf("allocs per call: %v one at a time, %v with %d at once", sequential, perRun/callers, callers)
		})
	}
}

// BenchmarkWarmInvokeParallel is the warm path under contention: 64
// callers share one default client and invoke sumKernel on a null
// device, so the time per call is the middleware's and a lock that
// serializes callers shows as contended wait. Run it with
// -cpu 2 -mutexprofile to see which lock sites the callers wait on.
func BenchmarkWarmInvokeParallel(b *testing.B) {
	const callers = 64
	tcp := startNullTCP(b, sumKernel{})
	cl := client.Dial(tcp.Addr())
	defer cl.Close()
	if _, err := cl.Invoke("sum", kernels.Params{"op": 0, "work": 0}, nil); err != nil {
		b.Fatalf("warm-up call: %v", err)
	}
	b.SetParallelism((callers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := kernels.Params{}
		for op := 1; pb.Next(); op++ {
			p["op"], p["work"] = float64(op), 0
			res, err := cl.Invoke("sum", p, nil)
			if err != nil {
				b.Errorf("call: %v", err)
				return
			}
			if res.Values["sum"] != float64(op+1) {
				b.Errorf("op %d: values %v", op, res.Values)
				return
			}
		}
	})
}

// namedNull is nullKernel under a name of its own, so several kernels
// can take turns on one device.
type namedNull string

func (k namedNull) Name() string   { return string(k) }
func (namedNull) Kind() accel.Kind { return accel.GPU }
func (namedNull) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{}, nil
}
func (namedNull) Execute(*kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{}, nil
}

// TestColdStartAllocationBudget pins what an in-process cold start that
// evicts allocates, with the default (discarding) logger: three kernels
// take turns on a one-slot null device, so every call boots a runner
// after evicting the previous kernel's idle one. The budget is the
// measured count; a log record built for a logger that discards it, or
// an ID formatted through fmt, fails it.
func TestColdStartAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the budget is measured without the race detector")
	}
	const budget = 10
	clock := vclock.Scaled(1e6)
	dev := nullProfile
	dev.Slots = 1
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, dev)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := New(Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	names := []string{"k0", "k1", "k2"}
	for _, name := range names {
		if err := srv.Register(namedNull(name)); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	ctx := context.Background()
	op := 0
	call := func() {
		name := names[op%len(names)]
		op++
		_, rep, err := srv.Invoke(ctx, name, nil)
		if err != nil {
			t.Fatalf("Invoke %s: %v", name, err)
		}
		if !rep.Cold {
			t.Fatalf("Invoke %s was warm, want a cold start", name)
		}
	}
	for i := 0; i < 30; i++ {
		call()
	}
	before := srv.Stats().Evictions
	allocs := testing.AllocsPerRun(300, call)
	if evicted := srv.Stats().Evictions - before; evicted < 300 {
		t.Fatalf("%d evictions in 301 cold starts, want one each", evicted)
	}
	if allocs > budget {
		t.Errorf("cold start: %v allocs per call, want <= %v", allocs, budget)
	}
	t.Logf("allocs per cold start: %v", allocs)
}
