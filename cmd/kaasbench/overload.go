package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"kaas/internal/accel"
	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/faults"
	"kaas/internal/kernels"
	"kaas/internal/metrics"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// runOverload is the survivability benchmark: it drives far more
// concurrent load than the server's admission limits allow, over two
// GPUs of which one keeps flapping, and reports how the control plane
// held up — what fraction of requests were shed with OVERLOADED, the
// latency distribution of the requests that were admitted, and how
// often the flapping device's circuit breaker changed state.
func runOverload(w io.Writer, invocations, conc int, scale float64) error {
	clock := vclock.Scaled(scale)
	host, err := accel.NewHost(clock, "bench", accel.XeonE52698,
		accel.TeslaP100, accel.TeslaP100)
	if err != nil {
		return err
	}
	defer host.Close()
	srv, err := core.New(core.Config{
		Clock:              clock,
		Host:               host,
		MaxInFlightTotal:   24,
		MaxQueuePerKernel:  16,
		BreakerThreshold:   2,                // trip fast: the flapper kills whole bursts
		BreakerOpenTimeout: 30 * time.Second, // modeled
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Register(kernels.NewMonteCarlo()); err != nil {
		return err
	}
	tcp, err := core.ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tcp.Close()

	// One device flaps for the whole run — down long enough that every
	// invocation it was serving fails (a burst of consecutive failures
	// trips its breaker), then healthy long enough for half-open probes
	// to close it again. Placement has to keep the other device serving.
	flapper := faults.NewDeviceFlapper(host.Devices()[1])
	stopFlap := make(chan struct{})
	var flapWg sync.WaitGroup
	flapWg.Add(1)
	go func() {
		defer flapWg.Done()
		wait := func(d time.Duration) bool {
			select {
			case <-stopFlap:
				return false
			case <-time.After(d):
				return true
			}
		}
		for {
			flapper.Fail()
			if !wait(60 * time.Millisecond) {
				break
			}
			flapper.Repair()
			if !wait(140 * time.Millisecond) {
				break
			}
		}
		flapper.Repair()
	}()

	// No retry budget: a shed request surfaces its OVERLOADED code
	// instead of being retried into an eventual success, so the counts
	// below measure the server's admission decisions, not the client's
	// persistence.
	c := client.Dial(tcp.Addr())
	defer c.Close()

	if conc < 1 {
		conc = 1
	}
	var (
		mu                        sync.Mutex
		admitted                  metrics.Sample
		shed, unavailable, failed int
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				t0 := time.Now()
				_, err := c.InvokeContext(ctx, "mci", kernels.Params{"n": 2e12}, nil)
				d := time.Since(t0)
				cancel()
				mu.Lock()
				var re *client.RemoteError
				switch {
				case err == nil:
					admitted.AddDuration(d)
				case errors.As(err, &re) && re.Code == wire.CodeOverloaded:
					shed++
				case errors.As(err, &re) && re.Code == wire.CodeUnavailable:
					unavailable++
				default:
					failed++
				}
				mu.Unlock()
				// Brief think time so the offered load is sustained over
				// several flap cycles instead of one instantaneous burst
				// of rejections.
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < invocations; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	close(stopFlap)
	flapWg.Wait()

	st := srv.Stats()
	var transitions uint64
	for _, d := range st.PerDevice {
		transitions += d.BreakerTransitions
	}
	fails, repairs := flapper.Cycles()

	pct := func(n int) float64 { return 100 * float64(n) / float64(invocations) }
	fmt.Fprintf(w, "overload: %d invocations at concurrency %d against 2x Tesla P100 "+
		"(in-flight cap 24, queue bound 16, one device flapping, scale %.0fx)\n",
		invocations, conc, scale)
	fmt.Fprintf(w, "  completed in %v (%.1f/s offered)\n",
		elapsed.Round(time.Millisecond), float64(invocations)/elapsed.Seconds())
	fmt.Fprintf(w, "  admitted:    %d (%.1f%%), latency %s\n",
		admitted.N(), pct(admitted.N()), percentileLine(&admitted))
	fmt.Fprintf(w, "  shed:        %d (%.1f%%) with OVERLOADED (server counted %d)\n",
		shed, pct(shed), st.Shed)
	if unavailable > 0 {
		fmt.Fprintf(w, "  unavailable: %d (%.1f%%) with UNAVAILABLE\n", unavailable, pct(unavailable))
	}
	if failed > 0 {
		fmt.Fprintf(w, "  failed:      %d (%.1f%%) with other errors\n", failed, pct(failed))
	}
	fmt.Fprintf(w, "  device flapped %d times (%d repairs); breaker transitions: %d\n",
		fails, repairs, transitions)
	for id, d := range st.PerDevice {
		if d.BreakerState != "" && d.Kind == "GPU" {
			fmt.Fprintf(w, "    %s: breaker %s after %d transitions\n", id, d.BreakerState, d.BreakerTransitions)
		}
	}
	if admitted.N()+shed+unavailable+failed != invocations {
		return fmt.Errorf("overload: lost requests: %d admitted + %d shed + %d unavailable + %d failed != %d",
			admitted.N(), shed, unavailable, failed, invocations)
	}
	return nil
}
