// Command compare sets two sets of benchmark result files side by side:
// one row per workload and end-to-end metric, with a verdict drawn from
// the bounds in BENCHMARK.json.
//
//	go run ./compare [-bench ../BENCHMARK.json] old.json[,old2.json...] new.json[,new2.json...]
//
// Each side may be several result files (written by the benchmark's
// -out); their medians are compared. The verdicts are better, unchanged,
// worse, and unresolved when either side's own spread (the distance
// between its quartiles) exceeds the bound. It exits non-zero on any
// worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// spec is what compare reads from BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the old median by which the metric may worsen.
	Bound float64 `json:"bound"`
	// Abs is an absolute allowance, for ratios that sit at or near zero,
	// where a share of the median means nothing.
	Abs float64 `json:"-"`
}

// healthMetrics are compared beside the end-to-end ones with absolute
// bounds: a change may not trade failures or missed latency limits for
// speed. BENCHMARK.json cannot carry them, because they are 0 on a
// healthy run and its bounds are shares of a median.
var healthMetrics = []metricSpec{
	{Name: "loadgen.failed_share", Unit: "ratio", Better: "lower", Abs: 0.001},
	{Name: "loadgen.slo_miss_share", Unit: "ratio", Better: "lower", Abs: 0.01},
}

// results is the part of a result file compare needs.
type results struct {
	Results []struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"results"`
}

func main() {
	benchFile := flag.String("bench", "../BENCHMARK.json", "the benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] old.json[,...] new.json[,...]")
		os.Exit(2)
	}
	var sp spec
	if err := readJSON(*benchFile, &sp); err != nil {
		fatal(err)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	worse := 0
	fmt.Printf("%-17s %-24s %14s %14s %9s %9s  %s\n", "workload", "metric", "old", "new", "change", "allowed", "verdict")
	for _, w := range sp.Workloads {
		for _, ms := range append(append([]metricSpec{}, sp.EndToEnd...), healthMetrics...) {
			a, b := old[w.Name][ms.Name], cur[w.Name][ms.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(a, b, ms)
			if v.verdict == "worse" {
				worse++
			}
			fmt.Printf("%-17s %-24s %14.4f %14.4f %+8.2f%% %9.4g  %s\n",
				w.Name, ms.Name, v.old, v.cur, 100*ratio(v.cur-v.old, math.Abs(v.old)), v.allowed, v.verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(os.Stderr, "compare: %d metrics worse\n", worse)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// load reads a comma-separated list of result files into
// workload -> metric -> one value per file. Traced results are skipped:
// end-to-end metrics are measured with tracing off.
func load(list string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		var rs results
		if err := readJSON(path, &rs); err != nil {
			return nil, err
		}
		for _, r := range rs.Results {
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

type judgement struct {
	old, cur float64 // medians
	allowed  float64 // how far cur may be on the worse side of old
	verdict  string
}

// judge compares the medians of two sets of runs of one metric.
func judge(old, cur []float64, ms metricSpec) judgement {
	j := judgement{old: median(old), cur: median(cur)}
	j.allowed = math.Max(ms.Bound*math.Abs(j.old), ms.Abs)
	worseBy := j.cur - j.old
	if ms.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case math.Max(spread(old), spread(cur)) > j.allowed:
		j.verdict = "unresolved"
	case worseBy > j.allowed:
		j.verdict = "worse"
	case worseBy < -j.allowed:
		j.verdict = "better"
	default:
		j.verdict = "unchanged"
	}
	return j
}

func sorted(v []float64) []float64 {
	s := append([]float64{}, v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile, computed
// as Python's statistics.quantiles(v, n=4) does; 0 for fewer than two
// values.
func spread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
