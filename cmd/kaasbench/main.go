// Command kaasbench regenerates the paper's evaluation figures against
// the simulated accelerator testbeds and prints each as a text table.
//
// Usage:
//
//	kaasbench -fig 6a            # one figure
//	kaasbench -fig all           # every figure, in paper order
//	kaasbench -fig 14 -quick     # reduced sweep
//	kaasbench -list              # available figure IDs
//	kaasbench -faultcheck        # invocation-path robustness smoke run
//	kaasbench -loadgen 200 -loadgen-conc 8 n=1000    # latency percentiles
//	kaasbench -loadgen 100 -server 127.0.0.1:7070    # against a running kaasd
//	kaasbench -scenario list                         # named replay/chaos scenarios
//	kaasbench -scenario all -seed 1                  # full matrix against its invariants
//	kaasbench -scenario chaos-flap -scenario-out out.json
//
// -faultcheck stands apart from the figures: it serves a platform
// through a fault-injecting listener (internal/faults) that breaks every
// other connection — truncated frames, resets, corrupted bytes, slow
// writes — and reports how many invocations a retrying client completed
// and what the retries cost.
//
// -loadgen drives N concurrent invocations of one kernel — against a
// running kaasd when -server is set, else against an in-process platform
// — and prints client-observed p50/p95/p99 latency split by cold and
// warm starts, the client-side view of the server's latency histograms.
//
// -scenario replays a named trace (load shape, chaos schedule, cluster
// topology) against its invariants and prints PASS/FAIL verdict lines.
// It is where overload, breaker recovery, scale-to-zero and cross-host
// failover are checked end to end (replay-burst, chaos-flap,
// diurnal-scale-to-zero, node-kill-midload, ...); wall-clock cost is
// measured by the repository benchmark in bench/, not here.
//
// The modes are exclusive: naming two, or passing key=value arguments
// to any mode but -loadgen, is an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"kaas"
	"kaas/internal/client"
	"kaas/internal/experiments"
	"kaas/internal/faults"
	"kaas/internal/metrics"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kaasbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kaasbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure ID to regenerate (2, 6a, 6b, 7, 8, 9, 10, 11, 12a, 12b, 13, 14, 15, 16a, 16b, 17, or all)")
	quick := fs.Bool("quick", false, "run reduced sweeps")
	samples := fs.Int("samples", 3, "samples per measurement (the paper uses 10)")
	scale := fs.Float64("scale", 2000, "modeled seconds per wall second")
	list := fs.Bool("list", false, "list available figures")
	faultcheck := fs.Bool("faultcheck", false, "run the invocation-path fault-injection smoke benchmark")
	faultN := fs.Int("fault-invocations", 40, "invocations for -faultcheck")
	loadgen := fs.Int("loadgen", 0, "drive this many invocations and print latency percentiles (0 = off)")
	server := fs.String("server", "", "kaasd address for -loadgen (empty = in-process platform)")
	lgKernel := fs.String("loadgen-kernel", "mci", "kernel for -loadgen")
	lgConc := fs.Int("loadgen-conc", 8, "concurrent clients for -loadgen")
	conns := fs.Int("conns", 4, "shared connections for -loadgen")
	scenarioName := fs.String("scenario", "", "run a named replay/chaos scenario against its invariants (a name, all, or list)")
	seed := fs.Int64("seed", 1, "scenario seed: same seed, same trace, same chaos, same verdict lines")
	scenarioOut := fs.String("scenario-out", "", "write the -scenario results (with diagnostics) as JSON to this file")
	scenarioTrace := fs.String("scenario-trace", "", "replay this recorded CSV trace (offset_ms,kernel,n,payload) through the named scenario instead of its synthetic trace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var modes []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fig", "list", "scenario", "loadgen", "faultcheck":
			modes = append(modes, "-"+f.Name)
		}
	})
	if len(modes) > 1 {
		return fmt.Errorf("%s are separate modes, pick one", strings.Join(modes, " and "))
	}
	if fs.NArg() > 0 && *loadgen <= 0 {
		return fmt.Errorf("unexpected arguments %q: only -loadgen takes key=value kernel parameters", fs.Args())
	}

	if *scenarioName != "" {
		return runScenario(os.Stdout, *scenarioName, *seed, *scale, *scenarioTrace, *scenarioOut)
	}

	if *faultcheck {
		return runFaultCheck(os.Stdout, *faultN)
	}

	if *loadgen > 0 {
		params, err := parseParams(fs.Args())
		if err != nil {
			return err
		}
		return runLoadgen(os.Stdout, *server, *lgKernel, *loadgen, *lgConc, *scale, params, *conns)
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Println(e.ID)
		}
		return nil
	}

	opts := experiments.Options{Quick: *quick, Samples: *samples, Scale: *scale}

	if *fig == "all" {
		for _, e := range experiments.Registry() {
			table, err := e.Run(opts)
			if err != nil {
				return fmt.Errorf("figure %s: %w", e.ID, err)
			}
			fmt.Println(table.String())
		}
		return nil
	}

	runner, err := experiments.ByID(*fig)
	if err != nil {
		return err
	}
	table, err := runner(opts)
	if err != nil {
		return fmt.Errorf("figure %s: %w", *fig, err)
	}
	fmt.Println(table.String())
	return nil
}

// runFaultCheck serves a platform through a fault-injecting listener and
// measures how a retrying client fares: every other connection gets one
// of the fault modes, so roughly half of all fresh connections fail and
// must be retried. It prints the completion count and retry cost.
func runFaultCheck(w io.Writer, invocations int) error {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Every connection is eventually fatal: frames truncate, the stream
	// corrupts, or writes drop after a budget of bytes — so the client
	// must keep replacing connections for the whole run. SlowWrite conns
	// survive on their own and are killed by the periodic CloseRandom
	// below, exercising the stale-shared-connection path.
	script := faults.Script(
		faults.Plan{Mode: faults.CloseMidFrame},
		faults.Plan{Mode: faults.DropAfterN, N: 800},
		// Corrupt a magic byte: the client detects the desync on the
		// next read instead of waiting out its deadline on a frame
		// whose corrupted length field promises bytes that never come.
		faults.Plan{Mode: faults.CorruptFrame, N: 2},
		faults.Plan{Mode: faults.SlowWrite, Chunk: 64, Delay: 100 * time.Microsecond},
	)
	ln := faults.Wrap(raw, script)

	p, err := kaas.New(
		kaas.WithAccelerators(kaas.TeslaP100),
		kaas.WithListener(ln),
		kaas.WithInvokeTimeout(10*time.Second),
		kaas.WithRetryPolicy(kaas.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond}),
	)
	if err != nil {
		return err
	}
	defer p.Close()

	c, err := p.NewClient()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Register("mci"); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	completed := 0
	var lat metrics.Sample
	for i := 0; i < invocations; i++ {
		t0 := time.Now()
		if _, err := c.Invoke("mci", kaas.Params{"n": 1000, "seed": float64(i)}, nil); err != nil {
			fmt.Fprintf(w, "invocation %d failed permanently: %v\n", i, err)
			continue
		}
		lat.AddDuration(time.Since(t0))
		completed++
		if i%5 == 4 {
			ln.CloseRandom(rng)
		}
	}
	elapsed := time.Since(start)
	m := c.Metrics()
	fmt.Fprintf(w, "fault-injection smoke run: %d/%d invocations completed in %v\n",
		completed, invocations, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  connections accepted: %d\n", ln.Accepted())
	fmt.Fprintf(w, "  client attempts:      %d\n", m.Attempts)
	fmt.Fprintf(w, "  retries:              %d\n", m.Retries)
	fmt.Fprintf(w, "  stale shared conns:   %d\n", m.StaleConns)
	fmt.Fprintf(w, "  connection errors:    %d\n", m.ConnErrors)
	fmt.Fprintf(w, "  remote errors:        %d\n", m.RemoteErrors)
	fmt.Fprintf(w, "  latency (incl. retries): %s\n", percentileLine(&lat))
	if completed != invocations {
		return fmt.Errorf("faultcheck: %d of %d invocations failed", invocations-completed, invocations)
	}
	return nil
}

// runLoadgen fires n invocations of one kernel at conc concurrency and
// prints the client-observed latency distribution split by cold and warm
// starts. With a -server address it drives a running kaasd; otherwise it
// hosts an in-process platform at the given time scale. The client
// multiplexes all calls over conns shared connections.
func runLoadgen(w io.Writer, server, kernel string, n, conc int, scale float64, params kaas.Params, conns int) error {
	var c *kaas.Client
	if server == "" {
		p, err := kaas.New(
			kaas.WithListenAddr("127.0.0.1:0"),
			kaas.WithTimeScale(scale),
			kaas.WithAccelerators(kaas.TeslaP100, kaas.TeslaP100),
			kaas.WithClientMux(conns),
		)
		if err != nil {
			return err
		}
		defer p.Close()
		c, err = p.NewClient()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loadgen: in-process platform (2x Tesla P100, scale %.0fx)\n", scale)
	} else {
		c = client.Dial(server, client.WithMux(conns))
		fmt.Fprintf(w, "loadgen: driving %s\n", server)
	}
	defer c.Close()
	if err := c.Register(kernel); err != nil {
		return err
	}

	if conc < 1 {
		conc = 1
	}
	var (
		mu         sync.Mutex
		cold, warm metrics.Sample
		lastID     string
		failures   int
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				t0 := time.Now()
				res, err := c.Invoke(kernel, params, nil)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					failures++
				} else if res.Cold {
					cold.AddDuration(d)
					lastID = res.InvocationID
				} else {
					warm.AddDuration(d)
					lastID = res.InvocationID
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Fprintf(w, "loadgen: %d invocations of %q at concurrency %d in %v (%.1f/s)\n",
		n, kernel, conc, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	if failures > 0 {
		fmt.Fprintf(w, "  failures: %d\n", failures)
	}
	fmt.Fprintf(w, "  cold starts: %s\n", percentileLine(&cold))
	fmt.Fprintf(w, "  warm starts: %s\n", percentileLine(&warm))
	if lastID != "" {
		fmt.Fprintf(w, "  last invocation ID: %s\n", lastID)
	}
	if failures > 0 {
		return fmt.Errorf("loadgen: %d of %d invocations failed", failures, n)
	}
	return nil
}

// percentileLine renders a latency sample as count + p50/p95/p99.
func percentileLine(s *metrics.Sample) string {
	if s.N() == 0 {
		return "n=0"
	}
	sec := func(p float64) time.Duration {
		return time.Duration(s.Percentile(p) * float64(time.Second)).Round(10 * time.Microsecond)
	}
	return fmt.Sprintf("n=%d  p50=%v  p95=%v  p99=%v", s.N(), sec(50), sec(95), sec(99))
}

// parseParams converts trailing key=value arguments to kernel params.
func parseParams(args []string) (kaas.Params, error) {
	params := make(kaas.Params, len(args))
	for _, a := range args {
		key, value, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("bad parameter %q, want key=value", a)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %w", a, err)
		}
		params[key] = v
	}
	return params, nil
}
