// Command kaasctl is the KaaS client CLI: register kernels on a KaaS
// server, invoke them, and inspect server state.
//
// Usage:
//
//	kaasctl -server 127.0.0.1:7070 register matmul
//	kaasctl -server 127.0.0.1:7070 invoke matmul n=500 seed=7
//	kaasctl -server 127.0.0.1:7070 -timeout 5s -retries 2 invoke matmul n=500
//	kaasctl -server 127.0.0.1:7070 -tenant acme invoke matmul n=500
//	kaasctl -server 127.0.0.1:7070 list
//	kaasctl -server 127.0.0.1:7070 stats
//	kaasctl -server 127.0.0.1:7070 stats -v   # per-kernel p50/p95/p99 + device tables
//	kaasctl -server 127.0.0.1:7070 cluster status   # membership + gossiped health
//	kaasctl simulate circuit.qasm       # local quantum-circuit simulation
//
// -timeout bounds each call (deadline propagated to the server; 0 waits
// forever) and -retries retries connection-level failures with backoff.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/cplane"
	"kaas/internal/kernels"
	"kaas/internal/qsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kaasctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kaasctl", flag.ContinueOnError)
	server := fs.String("server", "127.0.0.1:7070", "KaaS server address")
	timeout := fs.Duration("timeout", 0, "per-call deadline, propagated to the server (0 = none)")
	retries := fs.Int("retries", 0, "retries of connection-level failures per call")
	tenant := fs.String("tenant", "", "tenant identity stamped on every invocation (empty = server-side default tenant)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: kaasctl [-server addr] [-timeout d] [-retries n] [-tenant name] <register|invoke|list|stats|cluster> ...")
	}

	var copts []client.Option
	if *timeout > 0 {
		copts = append(copts, client.WithTimeout(*timeout))
	}
	if *retries > 0 {
		copts = append(copts, client.WithRetries(*retries+1))
	}
	if *tenant != "" {
		copts = append(copts, client.WithTenant(*tenant))
	}
	c := client.Dial(*server, copts...)
	defer c.Close()
	ctx := context.Background()

	switch rest[0] {
	case "register":
		if len(rest) != 2 {
			return fmt.Errorf("usage: kaasctl register <kernel>")
		}
		if err := c.RegisterContext(ctx, rest[1]); err != nil {
			return err
		}
		fmt.Printf("registered %s\n", rest[1])
		return nil

	case "invoke":
		if len(rest) < 2 {
			return fmt.Errorf("usage: kaasctl invoke <kernel> [key=value ...]")
		}
		params, err := parseParams(rest[2:])
		if err != nil {
			return err
		}
		res, err := c.InvokeContext(ctx, rest[1], params, nil)
		if err != nil {
			return err
		}
		start := "warm"
		switch {
		case res.Cold && res.CachedCold:
			start = "cached-cold"
		case res.Cold:
			start = "cold"
		}
		fmt.Printf("%s start, server time %v\n", start, res.ServerTime)
		keys := make([]string, 0, len(res.Values))
		for k := range res.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s = %g\n", k, res.Values[k])
		}
		if len(res.Data) > 0 {
			fmt.Printf("  payload: %d bytes\n", len(res.Data))
		}
		return nil

	case "list":
		names, err := c.ListContext(ctx)
		if err != nil {
			return err
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return nil

	case "stats":
		if len(rest) > 1 && rest[1] == "-v" {
			var stats core.Stats
			if err := c.StatsContext(ctx, &stats); err != nil {
				return err
			}
			return printVerboseStats(os.Stdout, &stats)
		}
		var stats json.RawMessage
		if err := c.StatsContext(ctx, &stats); err != nil {
			return err
		}
		var pretty map[string]any
		if err := json.Unmarshal(stats, &pretty); err != nil {
			return err
		}
		out, err := json.MarshalIndent(pretty, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil

	case "cluster":
		if len(rest) != 2 || rest[1] != "status" {
			return fmt.Errorf("usage: kaasctl cluster status")
		}
		body, err := json.Marshal(cplane.Envelope{Type: cplane.ControlStatus})
		if err != nil {
			return err
		}
		reply, err := c.ControlContext(ctx, body)
		if err != nil {
			return err
		}
		var status cplane.Status
		if err := json.Unmarshal(reply, &status); err != nil {
			return fmt.Errorf("decoding cluster status: %w", err)
		}
		return printClusterStatus(os.Stdout, &status)

	case "kernels":
		// Offline helper: list the built-in kernel library.
		for _, k := range kernels.Suite() {
			fmt.Printf("%-12s %s\n", k.Name(), k.Kind())
		}
		return nil

	case "simulate":
		// Offline helper: simulate an OpenQASM-subset circuit locally.
		if len(rest) != 2 {
			return fmt.Errorf("usage: kaasctl simulate <circuit.qasm>")
		}
		return simulate(rest[1])

	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

// simulate parses and runs a circuit file, printing the top basis-state
// probabilities.
func simulate(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	circuit, err := qsim.ParseCircuit(string(src))
	if err != nil {
		return err
	}
	state, err := circuit.Run()
	if err != nil {
		return err
	}
	fmt.Printf("%d qubits, %d gates\n", circuit.NumQubits, len(circuit.Gates))
	type outcome struct {
		idx int
		p   float64
	}
	outcomes := make([]outcome, 0, len(state.Amplitudes()))
	for i := range state.Amplitudes() {
		if p := state.Probability(i); p > 1e-12 {
			outcomes = append(outcomes, outcome{i, p})
		}
	}
	sort.Slice(outcomes, func(a, b int) bool { return outcomes[a].p > outcomes[b].p })
	limit := 16
	if len(outcomes) < limit {
		limit = len(outcomes)
	}
	for _, o := range outcomes[:limit] {
		fmt.Printf("  |%0*b⟩  %.6f\n", circuit.NumQubits, o.idx, o.p)
	}
	if len(outcomes) > limit {
		fmt.Printf("  ... %d more states\n", len(outcomes)-limit)
	}
	return nil
}

// printClusterStatus renders a node's membership view as a table: one
// row per member with liveness, drain state, load, shed rate, open
// breakers, and the kernels the member serves.
func printClusterStatus(w io.Writer, st *cplane.Status) error {
	fmt.Fprintf(w, "cluster view of node %s (%d members)\n\n", st.Node, len(st.Members))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tADDR\tSTATE\tBEATS\tDOWN/UP\tINFLIGHT\tSHED/S\tBREAKERS\tKERNELS")
	for _, m := range st.Members {
		state := "down"
		switch {
		case m.Self:
			state = "self"
		case m.Alive && m.Draining:
			state = "draining"
		case m.Alive:
			state = "alive"
		}
		breakers := "-"
		if n := countBreakers(m.OpenBreakers); n > 0 {
			breakers = fmt.Sprintf("%d open", n)
		}
		kernels := "-"
		if len(m.Kernels) > 0 {
			names := append([]string(nil), m.Kernels...)
			sort.Strings(names)
			kernels = strings.Join(names, ",")
		}
		addr := m.Addr
		if addr == "" {
			addr = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d/%d\t%d\t%.2f\t%s\t%s\n",
			m.Node, addr, state, m.Beats, m.Downs, m.Ups, m.InFlight, m.ShedRate, breakers, kernels)
	}
	return tw.Flush()
}

// countBreakers totals a member's per-kind open-breaker counts.
func countBreakers(open map[string]int) int {
	n := 0
	for _, c := range open {
		n += c
	}
	return n
}

// printVerboseStats renders the server's per-kernel latency distributions
// and per-device occupancy as aligned tables — the CLI view of the
// paper's Fig. 2/Fig. 7 breakdowns.
func printVerboseStats(w io.Writer, st *core.Stats) error {
	fmt.Fprintf(w, "kernels: %d  runners: %d  in-flight: %d  cold starts: %d  pre-warms: %d  failovers: %d  evictions: %d  reaps: %d\n",
		st.Kernels, st.Runners, st.InFlight, st.ColdStarts, st.PreWarms, st.Failovers, st.Evictions, st.Reaps)
	if ac := st.ArtifactCache; ac != nil {
		fmt.Fprintf(w, "artifact cache: %d entries (%s of %s)  hits: %d  misses: %d  evictions: %d\n",
			ac.Entries, formatBytes(ac.UsedBytes), formatBytes(ac.BudgetBytes), ac.Hits, ac.Misses, ac.Evictions)
	}
	if dp := st.DataPlane; dp.OOBInvocations > 0 || dp.LeaseGrants > 0 || dp.ArenaCapacity > 0 {
		fmt.Fprintf(w, "data plane: oob invocations: %d (%s)  in-band: %s  leases: %d active (%s granted, %d grants, %d reuses, %d revoked)\n",
			dp.OOBInvocations, formatBytes(int64(dp.OOBBytes)), formatBytes(int64(dp.InBandBytes)),
			dp.ActiveLeases, formatBytes(dp.LeaseBytesGranted), dp.LeaseGrants, dp.LeaseReuses, dp.LeaseRevocations)
	}
	if st.Batching {
		fmt.Fprintf(w, "batching: %d invocations in %d device dispatches\n",
			st.DataPlane.BatchedInvocations, st.DataPlane.BatchDispatches)
	}
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "KERNEL\tINV\tERR\tCOLD\tHIT/MISS\tPREWARM\tFAILOVER\tRUNNERS\tWARM p50/p95/p99\tCOLD p50/p95/p99\tCACHED-COLD p50/p95/p99")
	names := make([]string, 0, len(st.PerKernel))
	for name := range st.PerKernel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ks := st.PerKernel[name]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d/%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			name, ks.Invocations, ks.Errors, ks.ColdStarts, ks.CacheHits, ks.CacheMisses,
			ks.PreWarms, ks.Failovers, ks.Runners,
			formatPercentiles(ks.Warm), formatPercentiles(ks.Cold), formatPercentiles(ks.CachedCold))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(st.PerTenant) > 0 {
		fmt.Fprintln(w)
		if st.FairQueueing {
			fmt.Fprintln(w, "fair queueing: on")
		}
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "TENANT\tWEIGHT\tADMITTED\tSHED\tINFLIGHT\tQUEUED\tLAT p50/p95/p99")
		tenants := make([]string, 0, len(st.PerTenant))
		for name := range st.PerTenant {
			tenants = append(tenants, name)
		}
		sort.Strings(tenants)
		for _, name := range tenants {
			ts := st.PerTenant[name]
			fmt.Fprintf(tw, "%s\t%g\t%d\t%d\t%d\t%d\t%s\n",
				name, ts.Weight, ts.Admitted, ts.Shed, ts.InFlight, ts.Queued,
				formatPercentiles(ts.Latency))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DEVICE\tKIND\tRUNNERS\tCTX/SLOTS\tUTIL\tBUSY\tSLOT-BUSY\tMEM\tEVICT\tREAP")
	ids := make([]string, 0, len(st.PerDevice))
	for id := range st.PerDevice {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ds := st.PerDevice[id]
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d/%d\t%.0f%%\t%s\t%s\t%s\t%d\t%d\n",
			id, ds.Kind, ds.Runners, ds.ActiveContexts, ds.Slots, ds.Utilization*100,
			formatDuration(ds.ComputeBusy), formatDuration(ds.SlotBusy),
			formatBytes(ds.MemoryUsed), ds.Evictions, ds.Reaps)
	}
	return tw.Flush()
}

// formatPercentiles renders a latency summary as "p50/p95/p99 (n=N)".
func formatPercentiles(ls core.LatencySummary) string {
	if ls.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%s/%s/%s (n=%d)",
		formatDuration(ls.P50), formatDuration(ls.P95), formatDuration(ls.P99), ls.Count)
}

// formatDuration rounds a duration to a readable precision.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// parseParams converts key=value arguments to kernel params.
func parseParams(args []string) (kernels.Params, error) {
	params := make(kernels.Params, len(args))
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
