//go:build race

package core

import (
	"sync"
	"testing"

	"kaas/internal/accel"
	"kaas/internal/client"
	"kaas/internal/kernels"
)

// raceEnabled reports whether the race detector is active: under it
// sync.Pool drops a share of what is put back, so allocation budgets that
// assume a warm pool do not hold.
const raceEnabled = true

// wirePoison is the byte a race build of the wire package fills every
// recycled body with.
const wirePoison = 0xDB

// stashKernel keeps the payload of the last call it served, past the
// call: what no kernel may do (kernels.Request.Data).
type stashKernel struct {
	mu   sync.Mutex
	data []byte
}

func (*stashKernel) Name() string     { return "stash" }
func (*stashKernel) Kind() accel.Kind { return accel.GPU }
func (*stashKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{}, nil
}
func (k *stashKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	k.mu.Lock()
	k.data = req.Data
	k.mu.Unlock()
	return &kernels.Response{}, nil
}

// TestStashedBodyReadsPoison: the server recycles an in-band body when its
// stream ends, and a race build poisons it on the way into the pool, so a
// kernel that kept req.Data past its call reads nothing but the poison.
func TestStashedBodyReadsPoison(t *testing.T) {
	k := &stashKernel{}
	tcp := startNullTCP(t, k)
	cl := client.Dial(tcp.Addr())
	defer cl.Close()
	body := make([]byte, 4<<10) // a body pool class
	for i := range body {
		body[i] = byte(i)
	}
	if _, err := cl.Invoke("stash", nil, body); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// Closing the endpoint joins the stream worker that recycled the body.
	tcp.Close()
	k.mu.Lock()
	stash := k.data
	k.mu.Unlock()
	if len(stash) != len(body) {
		t.Fatalf("kernel saw %d payload bytes, want %d", len(stash), len(body))
	}
	for i, b := range stash {
		if b != wirePoison {
			t.Fatalf("stashed byte %d = %#x after the call, want the poison %#x", i, b, wirePoison)
		}
	}
}
