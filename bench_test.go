package kaas

// The benchmark harness regenerates every figure of the paper's
// evaluation (one benchmark per table/figure) plus ablation benches for
// the design choices called out in DESIGN.md.
//
// Accelerator time is modeled against a scaled virtual clock, so the
// interesting output is not ns/op but the custom metrics each benchmark
// reports (modeled seconds, reductions, throughput). Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig14 -benchtime=1x

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"kaas/internal/core"
	"kaas/internal/experiments"
	"kaas/internal/psched"
	"kaas/internal/vclock"
)

// benchOpts keeps figure benchmarks fast while exercising the full path.
func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Samples: 2, Scale: 100}
}

// runFigure executes one experiment per iteration and publishes selected
// raw values as benchmark metrics.
func runFigure(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	runner, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		table, err := runner(benchOpts())
		if err != nil {
			b.Fatalf("figure %s: %v", id, err)
		}
		last = table
	}
	for key, unit := range metrics {
		v, err := last.MustGet(key)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, unit)
	}
}

func BenchmarkFig02MotivatingWorkflow(b *testing.B) {
	runFigure(b, "2", map[string]string{
		"accelerator/workflow/total": "accel_s",
		"cpu-only/workflow/total":    "cpu_s",
	})
}

func BenchmarkFig06ColdWarmSmall(b *testing.B) {
	runFigure(b, "6a", map[string]string{
		"exclusive/mean": "exclusive_s",
		"kaas/cold":      "cold_s",
		"kaas/warm_mean": "warm_s",
	})
}

func BenchmarkFig06ColdWarmLarge(b *testing.B) {
	runFigure(b, "6b", map[string]string{
		"exclusive/mean": "exclusive_s",
		"kaas/warm_mean": "warm_s",
	})
}

func BenchmarkFig07WarmOverhead(b *testing.B) {
	runFigure(b, "7", map[string]string{
		"exclusive/500/overhead": "excl_ovh_s",
		"kaas/500/overhead":      "kaas_ovh_s",
	})
}

func BenchmarkFig08Throughput(b *testing.B) {
	runFigure(b, "8", map[string]string{
		"kaas/500/gflops":    "kaas_small_gflops",
		"time/500/gflops":    "time_small_gflops",
		"kaas/18000/gflops":  "kaas_large_gflops",
		"space/18000/gflops": "space_large_gflops",
	})
}

func BenchmarkFig09Slowdown(b *testing.B) {
	runFigure(b, "9", map[string]string{
		"kaas/500/slowdown":  "kaas_small_x",
		"space/500/slowdown": "space_small_x",
	})
}

func BenchmarkFig10Energy(b *testing.B) {
	runFigure(b, "10", map[string]string{
		"kaas/500/eff": "kaas_small_fpw",
		"cpu/500/eff":  "cpu_small_fpw",
	})
}

func BenchmarkFig11Remote(b *testing.B) {
	runFigure(b, "11", map[string]string{
		"remote/4096/total": "remote_s",
		"cpu/4096/total":    "cpu_s",
	})
}

func BenchmarkFig12StrongScaling(b *testing.B) {
	runFigure(b, "12a", map[string]string{
		"warm/1": "warm_1gpu_s",
		"warm/4": "warm_4gpu_s",
	})
}

func BenchmarkFig12WeakScaling(b *testing.B) {
	runFigure(b, "12b", map[string]string{
		"warm/1": "warm_1gpu_s",
		"warm/4": "warm_4gpu_s",
	})
}

func BenchmarkFig13Autoscaling(b *testing.B) {
	runFigure(b, "13", map[string]string{
		"peak_runners": "peak_runners",
		"completions":  "completions",
	})
}

func BenchmarkFig14GPUKernels(b *testing.B) {
	runFigure(b, "14", map[string]string{
		"mci/4096/reduction": "mci_small_red",
		"ga/4096/reduction":  "ga_large_red",
	})
}

func BenchmarkFig15FPGA(b *testing.B) {
	runFigure(b, "15", map[string]string{
		"histogram/reduction": "hist_red",
		"bitmap/reduction":    "bitmap_red",
	})
}

func BenchmarkFig16TPUKernelTime(b *testing.B) {
	runFigure(b, "16a", map[string]string{
		"exclusive/7000/tpu": "excl_tpu_s",
		"kaas/7000/tpu":      "kaas_tpu_s",
	})
}

func BenchmarkFig16TPUTotalTime(b *testing.B) {
	runFigure(b, "16b", map[string]string{
		"exclusive/7000/total": "excl_total_s",
		"kaas/7000/total":      "kaas_total_s",
	})
}

func BenchmarkFig17QPU(b *testing.B) {
	runFigure(b, "17", map[string]string{
		"qasm/reduction":       "qasm_red",
		"falcon-r4t/reduction": "r4t_red",
	})
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationWarmReuse quantifies the core idea: the same platform
// serving invocations warm vs being forced cold (runners reaped after
// every task).
func BenchmarkAblationWarmReuse(b *testing.B) {
	for _, mode := range []string{"warm", "cold-every-time"} {
		b.Run(mode, func(b *testing.B) {
			opts := []Option{
				WithAccelerators(TeslaP100),
				WithoutResultComputation(),
			}
			if mode == "cold-every-time" {
				opts = append(opts, WithKeepAlive(time.Millisecond, 0))
			}
			p, err := New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if err := p.RegisterByName("matmul"); err != nil {
				b.Fatal(err)
			}
			if mode == "warm" {
				// Absorb the initial cold start outside the measurement.
				if _, _, err := p.Invoke(context.Background(), "matmul", Params{"n": 500}, nil); err != nil {
					b.Fatal(err)
				}
			}
			var total time.Duration
			for i := 0; i < b.N; i++ {
				_, rep, err := p.Invoke(context.Background(), "matmul", Params{"n": 500}, nil)
				if err != nil {
					b.Fatal(err)
				}
				total += rep.Total()
				if mode == "cold-every-time" {
					// Let the reaper release the idle runner.
					time.Sleep(2 * time.Millisecond)
				}
			}
			b.ReportMetric(total.Seconds()/float64(b.N), "modeled_s/op")
		})
	}
}

// BenchmarkAblationTransfer compares in-band and out-of-band payload
// transfer through the TCP endpoint across payload sizes: the same Invoke
// against a platform without a tensor arena and against one whose
// clients lease windows of it.
func BenchmarkAblationTransfer(b *testing.B) {
	serve := func(opts ...Option) (*Platform, *Client) {
		p, err := New(append(opts,
			WithAccelerators(TeslaP100),
			WithListenAddr("127.0.0.1:0"),
			WithoutResultComputation(),
		)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(p.Close)
		if err := p.RegisterByName("ga"); err != nil {
			b.Fatal(err)
		}
		c, err := p.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return p, c
	}
	_, inband := serve()
	shared, oob := serve(WithOutOfBand(64 << 20))

	for _, n := range []int{64, 1024, 4096} {
		payload := EncodeFloat64s(make([]float64, n*100))
		params := Params{"n": float64(n), "generations": 1}
		for _, arm := range []struct {
			name string
			c    *Client
		}{{"inband", inband}, {"oob", oob}} {
			// Warm the runner.
			if _, err := arm.c.Invoke("ga", params, payload); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s-n%d", arm.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := arm.c.Invoke("ga", params, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The lease path falls back in-band silently.
	if shared.Stats().DataPlane.OOBInvocations == 0 {
		b.Error("the oob arm never moved a payload by lease")
	}
}

// BenchmarkAblationFusion compares a two-stage FPGA pipeline run as two
// separate warm invocations (intermediate payload crosses the host)
// against the fused kernel (intermediate stays on the device) — the
// kernel-fusion optimization of the paper's §6.
func BenchmarkAblationFusion(b *testing.B) {
	bitmap, err := KernelByName("bitmap")
	if err != nil {
		b.Fatal(err)
	}
	hist, err := KernelByName("histogram")
	if err != nil {
		b.Fatal(err)
	}
	fusedKernel, err := Fuse("fpga-pipeline", bitmap, hist)
	if err != nil {
		b.Fatal(err)
	}
	params := Params{"height": 1080, "width": 1920, "n": 2097504}

	for _, mode := range []string{"separate", "fused"} {
		b.Run(mode, func(b *testing.B) {
			p, err := New(WithAccelerators(AlveoU250), WithoutResultComputation())
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			var total time.Duration
			if mode == "fused" {
				if err := p.Register(fusedKernel); err != nil {
					b.Fatal(err)
				}
				// Warm start.
				if _, _, err := p.Invoke(context.Background(), "fpga-pipeline", params, nil); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					_, rep, err := p.Invoke(context.Background(), "fpga-pipeline", params, nil)
					if err != nil {
						b.Fatal(err)
					}
					total += rep.Total()
				}
			} else {
				// The single-slot FPGA holds one warm runner; run the
				// stages as a workflow against one registered kernel at
				// a time is not possible, so model the separate path as
				// the fused kernel's cost plus the intermediate
				// transfer both ways through a second invocation of the
				// bitmap kernel (its output equals the intermediate).
				if err := p.Register(bitmap); err != nil {
					b.Fatal(err)
				}
				if _, _, err := p.Invoke(context.Background(), "bitmap", params, nil); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					_, repA, err := p.Invoke(context.Background(), "bitmap", params, nil)
					if err != nil {
						b.Fatal(err)
					}
					// Second stage modeled as another pass over the
					// intermediate on the same runner.
					_, repB, err := p.Invoke(context.Background(), "bitmap", params, nil)
					if err != nil {
						b.Fatal(err)
					}
					total += repA.Total() + repB.Total()
				}
			}
			b.ReportMetric(total.Seconds()/float64(b.N), "modeled_s/op")
		})
	}
}

// BenchmarkAblationTransport compares remote invocation over the shaped
// 1 Gbps Ethernet link against the RDMA fabric the paper's §6 proposes.
func BenchmarkAblationTransport(b *testing.B) {
	p, err := New(
		WithAccelerators(TeslaP100),
		WithListenAddr("127.0.0.1:0"),
		WithoutResultComputation(),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if err := p.RegisterByName("ga"); err != nil {
		b.Fatal(err)
	}
	payload := EncodeFloat64s(make([]float64, 1024*100))
	params := Params{"n": 1024, "generations": 1}

	eth, err := p.NewShapedClient()
	if err != nil {
		b.Fatal(err)
	}
	defer eth.Close()
	rdma, err := p.NewRDMAClient()
	if err != nil {
		b.Fatal(err)
	}
	defer rdma.Close()

	// Warm the runner.
	if _, err := eth.Invoke("ga", params, payload); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *Client
	}{{"ethernet-1g", eth}, {"rdma-100g", rdma}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.c.Invoke("ga", params, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationThreshold varies the autoscaler's in-flight threshold
// and reports how many runners a fixed concurrent burst spawns.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, threshold := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("inflight-%d", threshold), func(b *testing.B) {
			var runners float64
			for i := 0; i < b.N; i++ {
				p, err := New(
					WithAccelerators(TeslaP100, TeslaP100, TeslaP100, TeslaP100),
					WithMaxInFlight(threshold),
					WithoutResultComputation(),
				)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.RegisterByName("matmul"); err != nil {
					p.Close()
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for c := 0; c < 8; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, _, err := p.Invoke(context.Background(), "matmul", Params{"n": 8000}, nil)
						if err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
				runners = float64(p.Stats().ColdStarts)
				p.Close()
			}
			b.ReportMetric(runners, "runners")
		})
	}
}

// BenchmarkAblationPlacement compares placement policies for a concurrent
// burst across four GPUs.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy core.PlacementPolicy
	}{
		{"least-loaded", PlaceLeastLoaded},
		{"round-robin", PlaceRoundRobin},
		{"first-fit", PlaceFirstFit},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				p, err := New(
					WithAccelerators(TeslaP100, TeslaP100, TeslaP100, TeslaP100),
					WithMaxInFlight(1),
					WithMaxRunnersPerDevice(4),
					WithPlacement(tc.policy),
					WithoutResultComputation(),
				)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.RegisterByName("matmul"); err != nil {
					p.Close()
					b.Fatal(err)
				}
				start := time.Now()
				var wg sync.WaitGroup
				for c := 0; c < 4; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, _, err := p.Invoke(context.Background(), "matmul", Params{"n": 12000}, nil)
						if err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
				makespan = time.Since(start)
				p.Close()
			}
			b.ReportMetric(makespan.Seconds()*1000, "wall_ms")
		})
	}
}

// BenchmarkAblationSharing compares the device fabric's two scheduling
// disciplines under concurrent equal-size kernels: processor sharing
// (MPS-style, the simulator default) against FIFO (exclusive queuing).
func BenchmarkAblationSharing(b *testing.B) {
	for _, tc := range []struct {
		name       string
		discipline psched.Discipline
	}{
		{"processor-sharing", psched.ProcessorSharing},
		{"fifo", psched.FIFO},
	} {
		b.Run(tc.name, func(b *testing.B) {
			clock := vclock.Scaled(2000)
			engine, err := psched.New(clock, psched.Config{
				Capacity:   1e9,
				Discipline: tc.discipline,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			var meanLatency time.Duration
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				var mu sync.Mutex
				var total time.Duration
				for j := 0; j < 8; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						d, err := engine.Run(context.Background(), 1e9) // 1 modeled s
						if err != nil {
							b.Error(err)
							return
						}
						mu.Lock()
						total += d
						mu.Unlock()
					}()
				}
				wg.Wait()
				meanLatency = total / 8
			}
			b.ReportMetric(meanLatency.Seconds(), "mean_latency_s")
		})
	}
}
