package client

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/core"
	"kaas/internal/kernels"
	"kaas/internal/shm"
	"kaas/internal/vclock"
)

// startOOBServer brings up a server with the zero-copy arena enabled,
// returning the core server (for stats), the TCP endpoint, and the
// shared arena pool both endpoints map.
func startOOBServer(t *testing.T) (*core.Server, *core.TCPServer, *shm.ArenaPool) {
	t.Helper()
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698,
		accel.TeslaP100, accel.AlveoU250)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := core.New(core.Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(srv.Close)
	arena := shm.NewArenaPool(4 << 20)
	tcp, err := core.ServeTCP(srv, "127.0.0.1:0", core.WithArenaPool(arena))
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })
	return srv, tcp, arena
}

// whitePixels is a 32×32 all-white RGB image payload for the bitmap
// kernel, whose result payload (the downsampled grayscale pixels) rides
// back through the same channel the request used.
func whitePixels() []byte {
	px := make([]float64, 32*32*3)
	for i := range px {
		px[i] = 1
	}
	return kernels.Float64sToBytes(px)
}

func invokeBitmap(t *testing.T, c *Client) *Result {
	t.Helper()
	res, err := c.Invoke("bitmap",
		kernels.Params{"height": 32, "width": 32, "factor": 2}, whitePixels())
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if math.Abs(res.Values["mean_luma"]-1) > 1e-9 {
		t.Fatalf("mean_luma = %v, want 1 (white input)", res.Values["mean_luma"])
	}
	pix, err := kernels.BytesToFloat64s(res.Data)
	if err != nil {
		t.Fatalf("decode result payload: %v", err)
	}
	if len(pix) != 16*16 {
		t.Fatalf("result pixels = %d, want 256", len(pix))
	}
	return res
}

// TestOOBInvokeRoundTrip sends payloads through the leased arena window:
// results stay correct, the server counts the invocations as
// out-of-band, and one negotiated lease serves the whole run — payloads
// move by handle, not by per-invocation grants.
func TestOOBInvokeRoundTrip(t *testing.T) {
	srv, tcp, arena := startOOBServer(t)
	c := Dial(tcp.Addr(), WithMux(1), WithArena(arena))
	defer c.Close()
	if err := c.Register("bitmap"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const n = 8
	for i := 0; i < n; i++ {
		invokeBitmap(t, c)
	}

	dp := srv.Stats().DataPlane
	if dp.OOBInvocations != n {
		t.Fatalf("OOBInvocations = %d, want %d", dp.OOBInvocations, n)
	}
	if want := uint64(n * len(whitePixels())); dp.OOBBytes != want {
		t.Fatalf("OOBBytes = %d, want %d", dp.OOBBytes, want)
	}
	st := arena.Stats()
	if st.Grants != 1 {
		t.Fatalf("arena grants = %d over %d invocations, want 1 (lease reuse)", st.Grants, n)
	}
	if st.Active != 1 {
		t.Fatalf("active leases = %d, want 1 pooled on the connection", st.Active)
	}
}

// TestOOBStaleLeaseFallsBackInBand revokes the client's pooled lease
// behind its back: the next invoke hits the server's stale-lease error
// and must transparently resend in-band — the caller sees a correct
// result, never an error.
func TestOOBStaleLeaseFallsBackInBand(t *testing.T) {
	srv, tcp, arena := startOOBServer(t)
	c := Dial(tcp.Addr(), WithMux(1), WithArena(arena))
	defer c.Close()
	if err := c.Register("bitmap"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	invokeBitmap(t, c)
	if dp := srv.Stats().DataPlane; dp.OOBInvocations != 1 {
		t.Fatalf("OOBInvocations = %d, want 1 before revocation", dp.OOBInvocations)
	}

	// Withdraw every lease without telling the client (the notification
	// path is exercised elsewhere): its next handle is stale on arrival.
	arena.RevokeAll()

	invokeBitmap(t, c)
	dp := srv.Stats().DataPlane
	if dp.InBandBytes == 0 {
		t.Fatal("stale-lease invoke did not fall back to in-band transfer")
	}
	if st := arena.Stats(); st.Revocations == 0 {
		t.Fatalf("arena stats = %+v, want recorded revocations", st)
	}

	// The lease path must recover: a later invoke negotiates a fresh
	// lease rather than staying in-band forever.
	invokeBitmap(t, c)
	if dp := srv.Stats().DataPlane; dp.OOBInvocations < 2 {
		t.Fatalf("OOBInvocations = %d after recovery, want >= 2", dp.OOBInvocations)
	}
}

// TestOOBClientAgainstPlainServer points an arena-equipped client at a
// server without one: negotiation is denied once, every invoke runs
// in-band, and the caller never notices.
func TestOOBClientAgainstPlainServer(t *testing.T) {
	tcp, _ := startServer(t)
	arena := shm.NewArenaPool(1 << 20)
	c := Dial(tcp.Addr(), WithMux(1), WithArena(arena))
	defer c.Close()
	if err := c.Register("bitmap"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 3; i++ {
		invokeBitmap(t, c)
	}
	if st := arena.Stats(); st.Grants != 0 {
		t.Fatalf("arena grants = %d against a plain server, want 0", st.Grants)
	}
}

// TestInBandClientAgainstOOBServer is the interop direction: a client
// without an arena works unchanged against a lease-enabled server.
func TestInBandClientAgainstOOBServer(t *testing.T) {
	srv, tcp, _ := startOOBServer(t)

	c := Dial(tcp.Addr())
	defer c.Close()
	if err := c.Register("bitmap"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	invokeBitmap(t, c)

	dp := srv.Stats().DataPlane
	if dp.OOBInvocations != 0 {
		t.Fatalf("OOBInvocations = %d from in-band clients, want 0", dp.OOBInvocations)
	}
	if dp.InBandBytes == 0 {
		t.Fatal("in-band byte counter did not move")
	}
}

// TestClientCloseReleasesLeases covers disconnect-mid-lease end to end:
// closing the client drops the connection, and the server returns every
// lease the connection held to the arena budget.
func TestClientCloseReleasesLeases(t *testing.T) {
	_, tcp, arena := startOOBServer(t)
	c := Dial(tcp.Addr(), WithMux(1), WithArena(arena))
	if err := c.Register("bitmap"); err != nil {
		c.Close()
		t.Fatalf("Register: %v", err)
	}
	invokeBitmap(t, c)
	if st := arena.Stats(); st.Active == 0 {
		t.Fatal("no live lease after an out-of-band invoke")
	}

	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := arena.Stats()
		if st.Active == 0 && st.Granted == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("arena stats = %+v after client close, want all leases released", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gatedSum sums its payload bytes. A request with params["hold"] == 1
// first announces itself on entered and waits for release, modeling a
// kernel still running after its caller has gone; what it then summed
// goes to held.
type gatedSum struct {
	entered, release chan struct{}
	held             chan float64
}

func (gatedSum) Name() string     { return "gatedsum" }
func (gatedSum) Kind() accel.Kind { return accel.GPU }
func (gatedSum) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{Work: 1e6, BytesIn: 1 << 10, BytesOut: 1 << 10, DeviceMemory: 1 << 16}, nil
}
func (k gatedSum) Execute(req *kernels.Request) (*kernels.Response, error) {
	hold := req.Params["hold"] == 1
	if hold {
		k.entered <- struct{}{}
		<-k.release
	}
	var sum float64
	for _, b := range req.Data {
		sum += float64(b)
	}
	if hold {
		k.held <- sum
	}
	return &kernels.Response{Values: map[string]float64{"sum": sum}}, nil
}

// TestCancelledLeasedCallDoesNotRecycleWindow: a leased call cancelled
// while its kernel is inside Execute leaves the server reading the
// window, so the client must not hand that window to its next call. The
// second call may take a fresh lease or go in-band; the abandoned kernel
// must still see the payload it was sent.
func TestCancelledLeasedCallDoesNotRecycleWindow(t *testing.T) {
	srv, tcp, arena := startOOBServer(t)
	k := gatedSum{entered: make(chan struct{}), release: make(chan struct{}, 1), held: make(chan float64, 1)}
	if err := srv.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	defer func() { // unblock the kernel on a failed run too
		select {
		case k.release <- struct{}{}:
		default:
		}
	}()
	c := Dial(tcp.Addr(), WithMux(1), WithArena(arena))
	defer c.Close()

	const size = 64 << 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan error, 1)
	go func() {
		_, err := c.InvokeContext(ctx, "gatedsum", kernels.Params{"hold": 1}, bytes.Repeat([]byte{1}, size))
		first <- err
	}()
	select {
	case <-k.entered:
	case err := <-first:
		t.Fatalf("first call returned before its kernel ran: %v", err)
	}
	leases := c.slots[0].conn.leases
	var abandoned uint64
	leases.mu.Lock()
	for id := range leases.inuse {
		abandoned = id
	}
	leases.mu.Unlock()
	if abandoned == 0 {
		t.Fatal("first call did not take the lease path")
	}
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}

	// The abandoned kernel is still blocked inside the window.
	res, err := c.Invoke("gatedsum", nil, bytes.Repeat([]byte{2}, size))
	if err != nil {
		t.Fatalf("second call: %v", err)
	}
	if got := res.Values["sum"]; got != 2*size {
		t.Errorf("second call summed %v, want %v", got, 2*size)
	}
	leases.mu.Lock()
	for _, cl := range leases.free {
		if cl.l.ID() == abandoned {
			t.Errorf("lease %d is back on the free list while the server is still inside it", abandoned)
		}
	}
	leases.mu.Unlock()

	k.release <- struct{}{}
	if got := <-k.held; got != size {
		t.Errorf("abandoned kernel summed %v over its window, want %v: the window was rewritten under it", got, size)
	}
}
