package client

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/artifact"
	"kaas/internal/core"
	"kaas/internal/kernels"
	"kaas/internal/netshape"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// startServer brings up a full KaaS TCP server on loopback.
func startServer(t *testing.T, tweak ...func(*core.Config)) (*core.TCPServer, vclock.Clock) {
	t.Helper()
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698,
		accel.TeslaP100, accel.TeslaP100, accel.AlveoU250)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	cfg := core.Config{Clock: clock, Host: host}
	for _, f := range tweak {
		f(&cfg)
	}
	srv, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(srv.Close)
	tcp, err := core.ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })
	return tcp, clock
}

// TestRegisterInvokeEndToEnd walks one kernel through every start
// temperature — cold, warm, and cached-cold after the reaper scales it
// to zero: whatever the server reports must reach Result.
func TestRegisterInvokeEndToEnd(t *testing.T) {
	tcp, _ := startServer(t, func(cfg *core.Config) {
		cfg.Artifacts = artifact.NewCache(64 << 20)
		// 0.3 s of wall time at the test clock: far longer than the
		// gap between the first two invocations below.
		cfg.KeepAlive = core.KeepAlive{Idle: 300 * time.Second}
	})
	c := Dial(tcp.Addr())
	defer c.Close()

	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Re-registering is idempotent at the protocol level.
	if err := c.Register("matmul"); err != nil {
		t.Fatalf("re-Register: %v", err)
	}

	res, err := c.Invoke("matmul", kernels.Params{"n": 64, "seed": 2}, nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !res.Cold || res.CachedCold {
		t.Errorf("first invocation: Cold=%v CachedCold=%v, want cold and uncached", res.Cold, res.CachedCold)
	}
	if res.Values["checksum"] <= 0 {
		t.Errorf("checksum = %v", res.Values["checksum"])
	}
	if res.ServerTime <= 0 {
		t.Error("missing server time")
	}

	res2, err := c.Invoke("matmul", kernels.Params{"n": 64, "seed": 2}, nil)
	if err != nil {
		t.Fatalf("warm Invoke: %v", err)
	}
	if res2.Cold {
		t.Error("second invocation cold")
	}
	if res2.ServerTime >= res.ServerTime {
		t.Errorf("warm (%v) not faster than cold (%v)", res2.ServerTime, res.ServerTime)
	}
	if res2.Values["checksum"] != res.Values["checksum"] {
		t.Error("same seed produced different results across invocations")
	}

	// Once the reaper has scaled the kernel to zero the next boot
	// finds its compiled artifact cached.
	waitUntil(t, 5*time.Second, func() bool {
		var st core.Stats
		return c.Stats(&st) == nil && st.Runners == 0
	}, "runner reap")
	res3, err := c.Invoke("matmul", kernels.Params{"n": 64, "seed": 2}, nil)
	if err != nil {
		t.Fatalf("cached-cold Invoke: %v", err)
	}
	if !res3.Cold || !res3.CachedCold {
		t.Errorf("invocation after scale-to-zero: Cold=%v CachedCold=%v, want cached-cold", res3.Cold, res3.CachedCold)
	}
}

func TestInvokeUnknownKernelReturnsRemoteError(t *testing.T) {
	tcp, _ := startServer(t)
	c := Dial(tcp.Addr())
	defer c.Close()
	_, err := c.Invoke("missing", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Message == "" {
		t.Error("empty remote error message")
	}
}

func TestRegisterUnknownKernel(t *testing.T) {
	tcp, _ := startServer(t)
	c := Dial(tcp.Addr())
	defer c.Close()
	var re *RemoteError
	if err := c.Register("not-a-kernel"); !errors.As(err, &re) {
		t.Errorf("err = %v, want RemoteError", err)
	}
}

func TestListKernels(t *testing.T) {
	tcp, _ := startServer(t)
	c := Dial(tcp.Addr())
	defer c.Close()
	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.Register("histogram"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	names, err := c.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	found := make(map[string]bool, len(names))
	for _, n := range names {
		found[n] = true
	}
	if !found["matmul"] || !found["histogram"] {
		t.Errorf("List = %v", names)
	}
}

func TestStats(t *testing.T) {
	tcp, _ := startServer(t)
	c := Dial(tcp.Addr())
	defer c.Close()
	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := c.Invoke("matmul", kernels.Params{"n": 32}, nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	var st core.Stats
	if err := c.Stats(&st); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Kernels != 1 || st.ColdStarts != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestInBandPayloadRoundTrip(t *testing.T) {
	tcp, _ := startServer(t)
	c := Dial(tcp.Addr())
	defer c.Close()
	if err := c.Register("bitmap"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	white := make([]float64, 32*32*3)
	for i := range white {
		white[i] = 1
	}
	res, err := c.Invoke("bitmap",
		kernels.Params{"height": 32, "width": 32, "factor": 2},
		kernels.Float64sToBytes(white))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if math.Abs(res.Values["mean_luma"]-1) > 1e-9 {
		t.Errorf("mean_luma = %v, want 1 (white input)", res.Values["mean_luma"])
	}
	pix, err := kernels.BytesToFloat64s(res.Data)
	if err != nil {
		t.Fatalf("decode result payload: %v", err)
	}
	if len(pix) != 16*16 {
		t.Errorf("result pixels = %d, want 256", len(pix))
	}
}

func TestConcurrentInvocations(t *testing.T) {
	tcp, _ := startServer(t)
	c := Dial(tcp.Addr())
	defer c.Close()
	if err := c.Register("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Invoke("mci", kernels.Params{"n": 10000, "seed": float64(i)}, nil)
			if err != nil {
				t.Errorf("Invoke %d: %v", i, err)
				return
			}
			if math.Abs(res.Values["estimate"]-math.Log(10)) > 0.2 {
				t.Errorf("estimate %d = %v", i, res.Values["estimate"])
			}
		}()
	}
	wg.Wait()
}

func TestShapedLinkAddsModeledDelay(t *testing.T) {
	tcp, clock := startServer(t)
	link := netshape.GigabitEthernet(clock)
	c := Dial(tcp.Addr(), WithLink(link))
	defer c.Close()
	if err := c.Register("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Send a 1 MB payload through the shaped link: ~8 ms modeled at
	// 1 Gbps each way for the request.
	payload := make([]byte, 1<<20)
	start := clock.Now()
	if _, err := c.Invoke("mci", kernels.Params{"n": 1000}, payload); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	elapsed := clock.Now().Sub(start)
	if elapsed < 8*time.Millisecond {
		t.Errorf("shaped invoke took %v modeled, want >= 8ms of transfer", elapsed)
	}
}

func TestClientClose(t *testing.T) {
	tcp, _ := startServer(t)
	c := Dial(tcp.Addr())
	c.Close()
	if _, err := c.Invoke("matmul", nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestServerRejectsGarbageProtocol(t *testing.T) {
	tcp, _ := startServer(t)
	conn, err := net.Dial("tcp", tcp.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n___padding___")); err != nil {
		t.Fatalf("write: %v", err)
	}
	msg, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read error reply: %v", err)
	}
	if msg.Type != wire.MsgError {
		t.Errorf("reply type = %v, want MsgError", msg.Type)
	}
}

func TestServerCloseTerminatesConnections(t *testing.T) {
	tcp, _ := startServer(t)
	c := Dial(tcp.Addr())
	defer c.Close()
	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := tcp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tcp.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.Invoke("matmul", kernels.Params{"n": 32}, nil); err == nil {
		t.Error("invoke after server close succeeded")
	}
}
