package core

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"

	"kaas/internal/accel"
)

// TestLifecycleEventsLogged captures the server's structured events
// through a buffered slog handler.
func TestLifecycleEventsLogged(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))

	s, host, _ := newTestServer(t, 2, func(c *Config) {
		c.Logger = logger
	})
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// Failure triggers a failover log.
	st := s.Stats()
	for id := range st.RunnersPerDevice {
		dev, _ := host.Device(id)
		dev.Fail()
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("Invoke after failure: %v", err)
	}

	out := buf.String()
	for _, want := range []string{
		"kernel registered",
		"runner started",
		"device failure, failing over",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestNoLoggerIsSilent ensures the nil-logger default never panics.
func TestNoLoggerIsSilent(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
}
