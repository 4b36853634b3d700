package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
)

func TestLeastLoadedPlacementSpreadsDevices(t *testing.T) {
	s, _, _ := newTestServer(t, 4, func(c *Config) {
		c.MaxInFlightPerRunner = 1
		c.Placement = PlaceLeastLoaded
	})
	k := &fakeKernel{name: "k", kind: accel.GPU,
		cost: kernels.Cost{Work: 5e9, BytesIn: 1000, BytesOut: 1000}}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if len(st.RunnersPerDevice) < 3 {
		t.Errorf("runners on %d devices, want spread across >= 3", len(st.RunnersPerDevice))
	}
	for dev, n := range st.RunnersPerDevice {
		if n > 1 {
			t.Errorf("device %s has %d runners, want <= 1", dev, n)
		}
	}
}

func TestFirstFitPlacementUsesOneDevice(t *testing.T) {
	s, _, _ := newTestServer(t, 4, func(c *Config) {
		c.Placement = PlaceFirstFit
		c.MaxRunnersPerDevice = 8
		c.MaxInFlightPerRunner = 1
	})
	k := &fakeKernel{name: "k", kind: accel.GPU,
		cost: kernels.Cost{Work: 2e9, BytesIn: 1000, BytesOut: 1000}}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if len(st.RunnersPerDevice) != 1 {
		t.Errorf("first-fit used %d devices, want 1: %v", len(st.RunnersPerDevice), st.RunnersPerDevice)
	}
}

func TestOverbookingWhenAtCapacity(t *testing.T) {
	// One device, one runner max, threshold 1: a second concurrent
	// invocation must overbook the existing runner rather than fail.
	s, _, _ := newTestServer(t, 1, func(c *Config) {
		c.MaxInFlightPerRunner = 1
		c.MaxRunnersPerDevice = 1
	})
	k := &fakeKernel{name: "k", kind: accel.GPU,
		cost: kernels.Cost{Work: 3e9, BytesIn: 1000, BytesOut: 1000}}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.ColdStarts != 1 {
		t.Errorf("ColdStarts = %d, want 1 (single runner)", st.ColdStarts)
	}
}

func TestPlacementPolicyString(t *testing.T) {
	for _, tt := range []struct {
		p    PlacementPolicy
		want string
	}{
		{PlaceLeastLoaded, "least-loaded"},
		{PlaceRoundRobin, "round-robin"},
		{PlaceFirstFit, "first-fit"},
		{PlacementPolicy(9), "placement(9)"},
	} {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestRoundRobinPlacementCycles(t *testing.T) {
	s, _, _ := newTestServer(t, 3, func(c *Config) {
		c.Placement = PlaceRoundRobin
		c.MaxInFlightPerRunner = 1
	})
	k := &fakeKernel{name: "k", kind: accel.GPU,
		cost: kernels.Cost{Work: 200e9, BytesIn: 100, BytesOut: 100}} // ~200 modeled s
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	st := s.Stats()
	if len(st.RunnersPerDevice) != 3 {
		t.Errorf("round-robin used %d devices, want 3: %v", len(st.RunnersPerDevice), st.RunnersPerDevice)
	}
}
