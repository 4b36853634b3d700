// Remote demonstrates transparent remote invocation (§5.3): a client
// calls the genetic-algorithm kernel on a KaaS server over TCP, comparing
// in-band (serialized) and out-of-band (shared-memory arena lease) data
// transfer and a network-shaped "remote" path modeling the paper's 1 Gbps
// testbed.
//
//	go run ./examples/remote
package main

import (
	"fmt"
	"math/rand"
	"os"

	"kaas"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "remote:", err)
		os.Exit(1)
	}
}

// serve starts a one-GPU KaaS server with the GA kernel registered.
func serve(opts ...kaas.Option) (*kaas.Platform, error) {
	platform, err := kaas.New(append([]kaas.Option{
		kaas.WithAccelerators(kaas.TeslaP100),
		kaas.WithListenAddr("127.0.0.1:0"),
	}, opts...)...)
	if err != nil {
		return nil, err
	}
	if err := platform.RegisterByName("ga"); err != nil {
		platform.Close()
		return nil, err
	}
	return platform, nil
}

func run() error {
	// Two servers on the same modeled host: one takes payloads in-band
	// only; the other also shares a tensor arena with its local clients,
	// whose payloads then move by lease handle.
	plain, err := serve()
	if err != nil {
		return err
	}
	defer plain.Close()
	shared, err := serve(kaas.WithOutOfBand(64 << 20))
	if err != nil {
		return err
	}
	defer shared.Close()
	fmt.Printf("KaaS servers on %s (in-band) and %s (out-of-band)\n\n", plain.Addr(), shared.Addr())

	local, err := plain.NewClient()
	if err != nil {
		return err
	}
	defer local.Close()
	localOOB, err := shared.NewClient()
	if err != nil {
		return err
	}
	defer localOOB.Close()
	remote, err := plain.NewShapedClient()
	if err != nil {
		return err
	}
	defer remote.Close()

	// A 512-individual population, sent as the kernel payload.
	rng := rand.New(rand.NewSource(7))
	population := make([]float64, 512*100)
	for i := range population {
		population[i] = rng.Float64()*10 - 5
	}
	payload := kaas.Params{"n": 512, "generations": 10}
	data := kaas.EncodeFloat64s(population)

	// Warm both runners, then compare the three paths.
	for _, c := range []*kaas.Client{local, localOOB} {
		if _, err := c.Invoke("ga", payload, data); err != nil {
			return err
		}
	}

	for _, path := range []struct {
		name   string
		client *kaas.Client
	}{
		{"local in-band ", local},
		{"local oob     ", localOOB},
		{"remote (1Gbps)", remote},
	} {
		res, err := path.client.Invoke("ga", payload, data)
		if err != nil {
			return fmt.Errorf("%s: %w", path.name, err)
		}
		fmt.Printf("%s  server-time=%8.3fs  best-fitness=%.2f\n",
			path.name, res.ServerTime.Seconds(), res.Values["best_fitness"])
	}

	// The lease path falls back in-band silently; the server's count says
	// whether the out-of-band line above was one.
	served := shared.Stats().DataPlane.OOBInvocations
	fmt.Printf("\nout-of-band invocations served by arena lease: %d\n", served)
	if served == 0 {
		return fmt.Errorf("the out-of-band client never moved a payload by lease")
	}
	return nil
}
