// Command bench is the repository's benchmark: it starts the platform in
// this process on TCP loopback, drives six seeded workloads against it,
// checks every output, and prints every metric by name and unit. See
// README.md for the workloads, the metrics and what each should move.
//
//	go run . [-workload name|all] [-seed N] [-seconds S] [-trace] [-out file]
//
// With -trace it runs the traced pass instead: spans at the seams the
// benchmark owns plus the layer ladder, giving the per-layer metrics.
// The last line of standard output is one JSON object with the run's
// verdict and metrics (of the single workload named, or a summary).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// report is the result file: the environment and one result per workload.
type report struct {
	Env     envInfo   `json:"env"`
	Results []*result `json:"results"`
}

type envInfo struct {
	Transport  string `json:"transport"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// line is the object printed last for a single workload: the verdict and
// exactly the metrics BENCHMARK.json declares for the pass.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	secs := fs.Float64("seconds", 10, "measured seconds per workload")
	traced := fs.Bool("trace", false, "run the traced pass (per-layer metrics) instead of the end-to-end pass")
	smoke := fs.Bool("smoke", false, "0.3 s windows, one set-up: a quick check that every workload runs")
	out := fs.String("out", "", "write the results as JSON to this file")
	spans := fs.String("spans", "", "with -trace: write the recorded spans as JSON to this file (one workload)")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if *smoke {
		*secs = 0.3
	}
	if *secs <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *spans != "" && (!*traced || len(selected) != 1) {
		fmt.Fprintln(os.Stderr, "bench: -spans needs -trace and one -workload")
		return 2
	}

	// Load generation shares the process with the platform: keep it to the
	// cores a CI-class box has, and never above the machine's.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	rep := report{Env: envInfo{
		Transport:  "client and server in one process, traffic over TCP loopback (127.0.0.1)",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: procs,
	}}
	fmt.Printf("# %s; %s, %d of %d CPUs\n", rep.Env.Transport, rep.Env.GoVersion, procs, rep.Env.NumCPU)

	// A hung call would hang a closed loop forever: the calls carry no
	// deadline, because a deadline changes what the client sends.
	limit := time.Duration(len(selected)) * (seconds(*secs)*2 + 60*time.Second)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: still running after %v, giving up\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	bad := 0
	for _, w := range selected {
		res, err := runWorkload(w, *seed, *secs, *traced, *smoke, *spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(res)
		if !res.Correct || len(res.Invalid) > 0 {
			bad++
		}
		rep.Results = append(rep.Results, res)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
			return 1
		}
	}
	if bad > 0 {
		// Invalid is not "noisy": no result line, non-zero exit.
		fmt.Fprintf(os.Stderr, "bench: %d of %d workloads invalid\n", bad, len(selected))
		return 1
	}
	var last any = map[string]any{"workloads": len(selected), "invalid": bad}
	if len(selected) == 1 {
		r := rep.Results[0]
		declared := endToEnd
		if *traced {
			declared = perLayer()
		}
		l := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueUnit{}}
		for _, d := range declared {
			l.Metrics[d.name] = valueUnit{r.Metrics[d.name].Value, d.unit}
		}
		last = l
	}
	buf, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(buf))
	return 0
}

// joinTraceValue lets -trace be given bare, as -trace=1, or as the two
// arguments "--trace 1" a driver passes: the flag package would read the
// latter as a bare boolean followed by a positional argument.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// printResult prints every metric of a result by name, with its unit and,
// for percentiles, the number of samples behind it.
func printResult(r *result) {
	pass := "end-to-end"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("\n== %s (%s pass, seed %d, %.3g s): %s\n", r.Workload, pass, r.Seed, r.Seconds, r.Why)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		decimals := 4
		if m.Value != 0 && m.Value > -1 && m.Value < 1 {
			decimals = 7 // set-up times are fractions of a millisecond
		}
		if m.N > 0 {
			fmt.Printf("%-36s %16.*f %-6s n=%d\n", name, decimals, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("%-36s %16.*f %s\n", name, decimals, m.Value, m.Unit)
		}
	}
	fmt.Printf("%-36s %16d of %d attempted\n", "failed", r.Failed, r.Attempted)
	for _, why := range r.Invalid {
		fmt.Printf("INVALID: %s\n", why)
	}
}
