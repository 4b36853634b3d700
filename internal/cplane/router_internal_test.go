package cplane

import (
	"fmt"
	"testing"
	"time"

	"kaas/internal/client"
	"kaas/internal/vclock"
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

// observedRouter returns a router over an observer that learned of
// members m000, m001, ... through Observe, each gossiping that it serves
// mci on one eligible device. Nothing answers at their loopback
// addresses, so each member's first heartbeat records a miss that
// SuspectAfter never turns into a down, and the manual clock fires no
// later beat: once every first beat is counted, the view stays put.
func observedRouter(tb testing.TB, members int) *Router {
	tb.Helper()
	n := NewNode(Config{
		Name:             "observer",
		Clock:            vclock.NewManual(time.Unix(0, 0)),
		SuspectAfter:     1 << 30,
		HeartbeatTimeout: time.Millisecond,
	})
	tb.Cleanup(n.Close)
	kind := kindOf("mci")
	for i := 0; i < members; i++ {
		n.Observe(&Gossip{
			Node:     fmt.Sprintf("m%03d", i),
			Addr:     fmt.Sprintf("127.0.0.1:%d", 1+i),
			Kernels:  []string{"mci"},
			Eligible: map[string]int{kind: 1},
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		beaten := 0
		for _, m := range n.peerView() {
			if m.Alive && m.Beats > 0 {
				beaten++
			}
		}
		if beaten == members {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatalf("%d of %d members beaten once", beaten, members)
		}
		time.Sleep(time.Millisecond)
	}
	r := NewRouter(RouterConfig{Node: n})
	tb.Cleanup(r.Close)
	return r
}

// TestPickClaimsItsMember: a pick claims the member it returns in the
// same lock section that compared the loads, so two picks that overlap
// (neither released yet) over tied members land on two members.
func TestPickClaimsItsMember(t *testing.T) {
	r := observedRouter(t, 2)
	kind := kindOf("mci")
	a, ra := r.pick("", "mci", kind, nil)
	b, rb := r.pick("", "mci", kind, nil)
	if ra == nil || rb == nil {
		t.Fatal("no member picked")
	}
	defer r.release(ra)
	defer r.release(rb)
	if a.Addr == b.Addr {
		t.Errorf("two unreleased picks both took %s", a.Node)
	}
}

// TestPickAllocatesNothing: over 100 members a pick, with its kind
// lookup and release, reads the published view and the kind table and
// allocates nothing.
func TestPickAllocatesNothing(t *testing.T) {
	r := observedRouter(t, 100)
	allocs := testing.AllocsPerRun(100, func() {
		_, rt := r.pick("", "mci", kindOf("mci"), nil)
		r.release(rt)
	})
	if allocs != 0 {
		t.Errorf("pick over 100 members: %v allocs, want 0", allocs)
	}
}

// BenchmarkRouterPick is one pick and release over 3, 30 and 100 tied
// members: the whole view is scanned every time.
func BenchmarkRouterPick(b *testing.B) {
	for _, members := range []int{3, 30, 100} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			r := observedRouter(b, members)
			kind := kindOf("mci")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rt := r.pick("", "mci", kind, nil)
				r.release(rt)
			}
		})
	}
}
