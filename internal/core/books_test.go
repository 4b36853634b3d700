package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"kaas/internal/kernels"
)

// checkBooksLocked compares every copy of the in-flight and queued books
// with every other at one instant (the caller holds s.mu): the server
// total against the per-kernel and per-tenant sums, the queue's total
// against the per-tenant queued sum and the flows' actual lengths, and
// each exported gauge against the count it is set from. The caller holds
// the admission stage's lock.
func checkBooksLocked(f *fairQueue, table map[string]*entry) error {
	var kernelSum, tenantSum, queuedSum, flowSum int
	for name, e := range table {
		n := e.inFlight.Load()
		kernelSum += int(n)
		if n < 0 {
			return fmt.Errorf("kernel %s: in flight %d", name, n)
		}
		if g := e.metrics().inFlight.Value(); g != n {
			return fmt.Errorf("kernel %s: gauge %d, count %d", name, g, n)
		}
	}
	for name, ts := range f.tenants {
		tenantSum += ts.inFlight
		queuedSum += ts.queued
		if ts.inFlight < 0 || ts.queued < 0 {
			return fmt.Errorf("tenant %s: in flight %d, queued %d", name, ts.inFlight, ts.queued)
		}
		tm := ts.metrics()
		if g := tm.inFlight.Value(); g != int64(ts.inFlight) {
			return fmt.Errorf("tenant %s: in-flight gauge %d, count %d", name, g, ts.inFlight)
		}
		if g := tm.queued.Value(); g != int64(ts.queued) {
			return fmt.Errorf("tenant %s: queued gauge %d, count %d", name, g, ts.queued)
		}
	}
	for _, fl := range f.order {
		flowSum += len(fl.queue)
	}
	if f.inFlight != kernelSum || f.inFlight != tenantSum {
		return fmt.Errorf("in flight: server %d, kernels %d, tenants %d", f.inFlight, kernelSum, tenantSum)
	}
	if f.queued != queuedSum || f.queued != flowSum {
		return fmt.Errorf("queued: queue %d, tenants %d, flows %d", f.queued, queuedSum, flowSum)
	}
	return nil
}

// TestBooksBalanceUnderStorm drives one server with a seeded storm —
// three tenants on two kernels, callers that cancel, deadlines that
// expire in the queue, a flapping device forcing failovers, every cap
// configured — while a sampler compares the books with each other, then
// drains and requires every count, gauge and runner claim to be zero.
// Run under -race.
func TestBooksBalanceUnderStorm(t *testing.T) {
	s, host, _ := newTestServer(t, 2, func(c *Config) {
		c.TenantWeights = map[string]float64{"a": 2, "b": 1, "c": 1}
		c.MaxInFlightTotal = 6
		c.MaxInFlightPerTenant = 3
		c.MaxQueuePerTenant = 3
		c.MaxQueuePerKernel = 2
		c.MaxInFlightPerRunner = 2
	})
	kernelNames := []string{"k1", "k2"}
	for _, name := range kernelNames {
		registerFake(t, s, name)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the flapping device
		defer bg.Done()
		dev := host.Devices()[0]
		for {
			select {
			case <-stop:
				dev.Repair()
				return
			case <-time.After(3 * time.Millisecond):
				if dev.Failed() {
					dev.Repair()
				} else {
					dev.Fail()
				}
			}
		}
	}()
	samples := 0
	go func() { // the sampler
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.adm.mu.Lock()
			err := checkBooksLocked(s.adm, *s.table.Load())
			s.adm.mu.Unlock()
			if err != nil {
				t.Errorf("books out of balance mid-storm: %v", err)
				return
			}
			st := s.Stats()
			var perKernel int64
			var perTenant int
			for _, ks := range st.PerKernel {
				perKernel += ks.InFlight
			}
			for _, ts := range st.PerTenant {
				perTenant += ts.InFlight
			}
			if int64(st.InFlight) != perKernel || st.InFlight != perTenant {
				t.Errorf("Stats: InFlight %d, sum PerKernel %d, sum PerTenant %d", st.InFlight, perKernel, perTenant)
				return
			}
			samples++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const callers, perCaller = 4, 40
	var wg sync.WaitGroup
	for ti, tenant := range []string{"a", "b", "c"} {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(tenant string, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < perCaller; i++ {
					ctx, cancel := context.Background(), context.CancelFunc(func() {})
					switch rng.Intn(5) {
					case 0: // the caller walks away
						ctx, cancel = context.WithCancel(ctx)
						time.AfterFunc(time.Duration(rng.Intn(400))*time.Microsecond, cancel)
					case 1: // a deadline short enough to expire queued
						ctx, cancel = context.WithTimeout(ctx, time.Duration(100+rng.Intn(900))*time.Microsecond)
					}
					req := &kernels.Request{Tenant: tenant}
					s.Invoke(ctx, kernelNames[rng.Intn(2)], req) // any outcome is legal; the books are the test
					cancel()
				}
			}(tenant, int64(100*ti+c))
		}
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if samples == 0 {
		t.Error("the sampler never ran")
	}

	st := s.Stats()
	if st.Shed == 0 {
		t.Error("the storm shed nothing: the caps were never reached")
	}
	for name, e := range *s.table.Load() {
		e.mu.Lock()
		for _, r := range e.runners {
			if r.inflight != 0 {
				t.Errorf("kernel %s runner %s still holds %d claim(s) with no caller left", name, r.id, r.inflight)
			}
		}
		e.mu.Unlock()
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	s.adm.mu.Lock()
	err := checkBooksLocked(s.adm, *s.table.Load())
	inFlight, queued := s.adm.inFlight, s.adm.queued
	s.adm.mu.Unlock()
	if err != nil || inFlight != 0 || queued != 0 {
		t.Errorf("after drain: in flight %d, queued %d, balance error %v", inFlight, queued, err)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, family := range []string{metricInFlight, metricTenantInFlight, metricTenantQueued} {
			if strings.HasPrefix(line, family+"{") && !strings.HasSuffix(line, " 0") {
				t.Errorf("/metrics after drain: %s, want 0", line)
			}
		}
	}
}
