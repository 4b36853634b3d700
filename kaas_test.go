package kaas

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"kaas/internal/faults"
)

func TestPlatformDefaults(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if p.Addr() != "" {
		t.Errorf("Addr = %q, want empty without TCP", p.Addr())
	}
	if _, err := p.NewClient(); err == nil {
		t.Error("NewClient without TCP succeeded")
	}
}

func TestPlatformRegisterInvoke(t *testing.T) {
	p, err := New(WithAccelerators(TeslaP100, AlveoU250))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	if err := p.RegisterByName("matmul"); err != nil {
		t.Fatalf("RegisterByName: %v", err)
	}
	if err := p.RegisterByName("histogram"); err != nil {
		t.Fatalf("RegisterByName histogram: %v", err)
	}
	if err := p.RegisterByName("bogus"); err == nil {
		t.Error("RegisterByName(bogus) succeeded")
	}

	resp, rep, err := p.Invoke(context.Background(), "matmul", Params{"n": 64}, nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Values["checksum"] <= 0 {
		t.Errorf("checksum = %v", resp.Values["checksum"])
	}
	if !rep.Cold {
		t.Error("first invocation not cold")
	}
	if got := len(p.Kernels()); got != 2 {
		t.Errorf("Kernels = %d, want 2", got)
	}
	if st := p.Stats(); st.ColdStarts != 1 {
		t.Errorf("ColdStarts = %d, want 1", st.ColdStarts)
	}
}

// TestPlatformReportContract: every in-process call, through Invoke or
// InvokeTenant, gets a Report of its own — a fresh invocation ID, the
// kernel and the device that served it, one attempt — and InvokeTenant
// charges the tenant it names.
func TestPlatformReportContract(t *testing.T) {
	p, err := New(WithTimeScale(1e4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if err := p.RegisterByName("matmul"); err != nil {
		t.Fatalf("RegisterByName: %v", err)
	}
	ctx := context.Background()
	params := Params{"n": 16}
	calls := []struct {
		tenant string // "" calls Invoke
		cold   bool
	}{
		{"", true},
		{"acme", false},
		{"", false},
		{"acme", false},
	}
	reps := make([]*Report, len(calls))
	for i, call := range calls {
		var rep *Report
		if call.tenant == "" {
			_, rep, err = p.Invoke(ctx, "matmul", params, nil)
		} else {
			_, rep, err = p.InvokeTenant(ctx, call.tenant, "matmul", params, nil)
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		reps[i] = rep
		if rep.Kernel != "matmul" || rep.Device == "" || rep.Attempts != 1 {
			t.Errorf("call %d: kernel %q, device %q, %d attempts; want matmul, a device, 1",
				i, rep.Kernel, rep.Device, rep.Attempts)
		}
		if rep.Cold != call.cold {
			t.Errorf("call %d: cold = %v, want %v", i, rep.Cold, call.cold)
		}
	}
	// Checked after the last call, so a report the server reused for a
	// later call shows here.
	ids := make(map[string]bool)
	for i, rep := range reps {
		if !strings.HasPrefix(rep.InvocationID, "inv-") || ids[rep.InvocationID] {
			t.Errorf("call %d: invocation ID %q, want a distinct inv- ID", i, rep.InvocationID)
		}
		ids[rep.InvocationID] = true
	}
	st := p.Stats()
	for _, tenant := range []string{"default", "acme"} {
		if got := st.PerTenant[tenant].Admitted; got != 2 {
			t.Errorf("tenant %q admitted %d calls, want 2", tenant, got)
		}
	}
}

func TestPlatformTCPEndToEnd(t *testing.T) {
	p, err := New(WithListenAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if p.Addr() == "" {
		t.Fatal("no TCP address")
	}
	c, err := p.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	if err := c.Register("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := c.Invoke("mci", Params{"n": 10000}, nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Values["estimate"] <= 0 {
		t.Errorf("estimate = %v", res.Values["estimate"])
	}
}

// TestOutOfBandDefaultClientLeases builds a platform with WithOutOfBand
// and nothing else: a default NewClient must move its payload through an
// arena lease, not silently in-band.
func TestOutOfBandDefaultClientLeases(t *testing.T) {
	p, err := New(WithListenAddr("127.0.0.1:0"), WithOutOfBand(0))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	c, err := p.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	if err := c.Register("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := c.Invoke("mci", Params{"n": 1000}, make([]byte, 64<<10)); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if dp := p.Stats().DataPlane; dp.OOBInvocations == 0 || dp.LeaseGrants == 0 {
		t.Errorf("OOBInvocations = %d, LeaseGrants = %d, want both > 0", dp.OOBInvocations, dp.LeaseGrants)
	}
}

func TestPlatformShapedClient(t *testing.T) {
	p, err := New(WithListenAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	c, err := p.NewShapedClient()
	if err != nil {
		t.Fatalf("NewShapedClient: %v", err)
	}
	defer c.Close()
	if err := c.Register("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := c.Invoke("mci", Params{"n": 1000}, nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
}

func TestPlatformOptions(t *testing.T) {
	p, err := New(
		WithTimeScale(2000),
		WithHostName("node7"),
		WithCPU(EPYC7513),
		WithAccelerators(TeslaV100, TeslaV100),
		WithMaxInFlight(2),
		WithMaxRunnersPerDevice(2),
		WithPlacement(PlaceRoundRobin),
		WithKeepAlive(10*time.Second, 0),
		WithoutResultComputation(),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if err := p.RegisterByName("resnet"); err != nil {
		t.Fatalf("RegisterByName: %v", err)
	}
	resp, _, err := p.Invoke(context.Background(), "resnet", Params{"batch": 8}, nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if _, ok := resp.Values["first_class"]; ok {
		t.Error("results computed despite WithoutResultComputation")
	}
}

func TestPlatformListenerTimeoutRetry(t *testing.T) {
	// Serve through a fault-injecting listener whose first connection
	// dies mid-frame: the platform-configured retry policy must recover
	// transparently, and the deadline must ride along on every call.
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ln := faults.Wrap(raw, func(i int) faults.Plan {
		if i == 0 {
			return faults.Plan{Mode: faults.CloseMidFrame}
		}
		return faults.Plan{}
	})
	p, err := New(
		WithAccelerators(TeslaP100),
		WithListener(ln),
		WithInvokeTimeout(10*time.Second),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if p.Addr() == "" {
		t.Fatal("no address from custom listener")
	}
	c, err := p.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	if err := c.Register("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := c.Invoke("mci", Params{"n": 1000}, nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	m := c.Metrics()
	if m.Retries == 0 {
		t.Errorf("Metrics = %+v, want at least one retry through the faulty connection", m)
	}
	if m.RemoteErrors != 0 {
		t.Errorf("RemoteErrors = %d, want 0", m.RemoteErrors)
	}
}

func TestKernelLibraryAccessors(t *testing.T) {
	suite := KernelSuite()
	if len(suite) < 12 {
		t.Errorf("KernelSuite = %d kernels, want >= 12", len(suite))
	}
	k, err := KernelByName("vqe")
	if err != nil || k.Name() != "vqe" {
		t.Errorf("KernelByName(vqe) = %v, %v", k, err)
	}
	if _, err := KernelByName("nothing"); err == nil {
		t.Error("KernelByName(nothing) succeeded")
	}
}
