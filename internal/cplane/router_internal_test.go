package cplane

import (
	"fmt"
	"testing"

	"kaas/internal/client"
	"kaas/internal/wire"
)

// TestRedispatchableFollowsWireRetryable: a typed error moves to another
// node exactly when its code is wire.Retryable; which errors carry those
// codes is core.ErrorCode's table (core.TestErrorCode).
func TestRedispatchableFollowsWireRetryable(t *testing.T) {
	r := NewRouter(RouterConfig{})
	for _, code := range []string{
		wire.CodeOverloaded, wire.CodeUnavailable, wire.CodeLeaseRevoked,
		wire.CodeDeadlineExceeded, wire.CodeUnknownKernel, wire.CodeInternal,
	} {
		err := fmt.Errorf("cplane: node a: %w", &client.RemoteError{Code: code})
		if got := r.redispatchable(err); got != wire.Retryable(code) {
			t.Errorf("redispatchable(%s) = %v, want %v", code, got, !got)
		}
	}
}
