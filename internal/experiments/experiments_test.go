package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// quickOpts runs experiments at reduced sweeps for tests.
func quickOpts() Options {
	return Options{Quick: true, Samples: 2, Scale: 100}
}

// get fetches a raw value or fails the test.
func get(t *testing.T, table *Table, key string) float64 {
	t.Helper()
	v, err := table.MustGet(key)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRegistryCompleteAndResolvable(t *testing.T) {
	reg := Registry()
	want := []string{"2", "6a", "6b", "7", "8", "9", "10", "11", "12a", "12b", "13", "14", "15", "16a", "16b", "17"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].ID, id)
		}
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID("99"); err == nil {
		t.Error("ByID(99) succeeded")
	}
}

func TestTableFormatting(t *testing.T) {
	table := NewTable("x", "demo", "a", "b")
	table.AddRow("1", "2")
	table.Note("hello %d", 42)
	table.Set("k", 3)
	out := table.String()
	for _, want := range []string{"Figure x: demo", "a", "hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if v, ok := table.Get("k"); !ok || v != 3 {
		t.Errorf("Get(k) = %v, %v", v, ok)
	}
	if _, err := table.MustGet("missing"); err == nil {
		t.Error("MustGet(missing) succeeded")
	}
}

// TestFig02Shape: the naive accelerated workflow must be slower than
// CPU-only, with initialization dominating the GPU stage.
func TestFig02Shape(t *testing.T) {
	table, err := Fig02MotivatingWorkflow(quickOpts())
	if err != nil {
		t.Fatalf("Fig02: %v", err)
	}
	accel := get(t, table, "accelerator/workflow/total")
	cpu := get(t, table, "cpu-only/workflow/total")
	if accel <= cpu {
		t.Errorf("accelerated workflow (%.2fs) not slower than CPU-only (%.2fs)", accel, cpu)
	}
	gpuInitShare := get(t, table, "accelerator/inference/init_share")
	if gpuInitShare < 0.8 {
		t.Errorf("GPU stage init share = %.2f, want >= 0.8 (paper: 98.3%%)", gpuInitShare)
	}
	fpgaKernelShare := get(t, table, "accelerator/bitmap/kernel_share")
	if fpgaKernelShare < 0.05 || fpgaKernelShare > 0.95 {
		t.Errorf("FPGA kernel share = %.2f, want a visible fraction", fpgaKernelShare)
	}
}

// TestFig06Shape: KaaS cold start is cheaper than exclusive execution and
// warm invocations are far cheaper still.
func TestFig06Shape(t *testing.T) {
	for _, run := range []struct {
		name string
		fn   Runner
		// minimum warm improvement vs exclusive
		minWarmReduction float64
	}{
		{"small", Fig06ColdWarmSmall, 0.70},
		{"large", Fig06ColdWarmLarge, 0.20},
	} {
		t.Run(run.name, func(t *testing.T) {
			table, err := run.fn(quickOpts())
			if err != nil {
				t.Fatalf("Fig06: %v", err)
			}
			excl := get(t, table, "exclusive/mean")
			cold := get(t, table, "kaas/cold")
			warm := get(t, table, "kaas/warm_mean")
			if cold >= excl {
				t.Errorf("KaaS cold (%.2fs) not cheaper than exclusive (%.2fs)", cold, excl)
			}
			if warm >= cold {
				t.Errorf("warm (%.2fs) not cheaper than cold (%.2fs)", warm, cold)
			}
			if r := 1 - warm/excl; r < run.minWarmReduction {
				t.Errorf("warm reduction = %.2f, want >= %.2f", r, run.minWarmReduction)
			}
		})
	}
}

// TestFig07Shape: KaaS slashes overhead at small sizes; overheads converge
// relatively at the largest size.
func TestFig07Shape(t *testing.T) {
	table, err := Fig07WarmOverhead(quickOpts())
	if err != nil {
		t.Fatalf("Fig07: %v", err)
	}
	exclSmall := get(t, table, "exclusive/500/overhead")
	kaasSmall := get(t, table, "kaas/500/overhead")
	if kaasSmall >= exclSmall/3 {
		t.Errorf("small-task overhead: kaas %.3fs vs exclusive %.3fs, want >= 3x reduction",
			kaasSmall, exclSmall)
	}
	exclLargeComp := get(t, table, "exclusive/20000/computation")
	exclLargeOver := get(t, table, "exclusive/20000/overhead")
	if exclLargeOver > exclLargeComp {
		t.Errorf("at 20000² exclusive overhead (%.2fs) exceeds computation (%.2fs): overheads should be amortized",
			exclLargeOver, exclLargeComp)
	}
}

// TestFig08Shape: KaaS throughput leads at small sizes; KaaS and MPS
// converge at large sizes while time sharing stays lowest.
func TestFig08Shape(t *testing.T) {
	table, err := Fig08Throughput(quickOpts())
	if err != nil {
		t.Fatalf("Fig08: %v", err)
	}
	small, large := 500, 18000
	kaasSmall := get(t, table, keyf("kaas/%d/gflops", small))
	spaceSmall := get(t, table, keyf("space/%d/gflops", small))
	timeSmall := get(t, table, keyf("time/%d/gflops", small))
	// Space and time sharing are two wall-scaled makespans about 2 %
	// apart at this size; allow a little measurement noise between them.
	if kaasSmall <= spaceSmall || spaceSmall < 0.95*timeSmall {
		t.Errorf("small-size throughput ordering wrong: kaas=%.2f space=%.2f time=%.2f",
			kaasSmall, spaceSmall, timeSmall)
	}
	kaasLarge := get(t, table, keyf("kaas/%d/gflops", large))
	spaceLarge := get(t, table, keyf("space/%d/gflops", large))
	timeLarge := get(t, table, keyf("time/%d/gflops", large))
	ratio := kaasLarge / spaceLarge
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("large-size kaas/space throughput ratio = %.2f, want convergence (~1)", ratio)
	}
	// Time and space sharing converge at large sizes; allow a little
	// measurement noise in the comparison.
	if timeLarge >= 1.05*spaceLarge {
		t.Errorf("time sharing (%.2f) should stay at or below space sharing (%.2f) at large sizes",
			timeLarge, spaceLarge)
	}
}

// TestFig09Shape: at small sizes the baselines' per-task init shows up as
// kernel-time slowdown while KaaS stays near 1; at large sizes KaaS and
// MPS converge near the 2x contention bound and time sharing runs alone.
func TestFig09Shape(t *testing.T) {
	table, err := Fig09Slowdown(quickOpts())
	if err != nil {
		t.Fatalf("Fig09: %v", err)
	}
	small, large := 500, 18000
	kaasSmall := get(t, table, keyf("kaas/%d/slowdown", small))
	spaceSmall := get(t, table, keyf("space/%d/slowdown", small))
	if kaasSmall >= spaceSmall {
		t.Errorf("small-size slowdown: kaas %.2f should be below space %.2f", kaasSmall, spaceSmall)
	}
	kaasLarge := get(t, table, keyf("kaas/%d/slowdown", large))
	spaceLarge := get(t, table, keyf("space/%d/slowdown", large))
	timeLarge := get(t, table, keyf("time/%d/slowdown", large))
	if kaasLarge < 1.3 || spaceLarge < 1.3 {
		t.Errorf("large-size contention missing: kaas=%.2f space=%.2f, want ~2", kaasLarge, spaceLarge)
	}
	if timeLarge > 1.4 {
		t.Errorf("time sharing large slowdown = %.2f, want ~1 (runs alone)", timeLarge)
	}
}

// TestFig10Shape: KaaS is the most efficient model at the smallest size
// and the only GPU model beating the CPU there; GPU models converge and
// beat the CPU at large sizes.
func TestFig10Shape(t *testing.T) {
	table, err := Fig10Energy(quickOpts())
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	small, large := 500, 12000
	kaas := get(t, table, keyf("kaas/%d/eff", small))
	space := get(t, table, keyf("space/%d/eff", small))
	timeEff := get(t, table, keyf("time/%d/eff", small))
	cpu := get(t, table, keyf("cpu/%d/eff", small))
	if kaas <= space || kaas <= timeEff {
		t.Errorf("small-size efficiency: kaas %.3g should lead (space %.3g, time %.3g)", kaas, space, timeEff)
	}
	if kaas <= cpu {
		t.Errorf("small-size: kaas (%.3g) should beat CPU (%.3g)", kaas, cpu)
	}
	if timeEff >= cpu {
		t.Errorf("small-size: time sharing (%.3g) should lose to CPU (%.3g)", timeEff, cpu)
	}
	kaasL := get(t, table, keyf("kaas/%d/eff", large))
	cpuL := get(t, table, keyf("cpu/%d/eff", large))
	if kaasL <= cpuL {
		t.Errorf("large-size: GPU (%.3g) should beat CPU (%.3g)", kaasL, cpuL)
	}
}

// TestFig11Shape: remote GPU invocation beats local CPU execution at the
// largest size; in-band and out-of-band local transfers are close; remote
// adds delay over local.
func TestFig11Shape(t *testing.T) {
	table, err := Fig11Remote(quickOpts())
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	large := 4096
	cpu := get(t, table, keyf("cpu/%d/total", large))
	remote := get(t, table, keyf("remote/%d/total", large))
	local := get(t, table, keyf("local-inband/%d/total", large))
	oob := get(t, table, keyf("local-oob/%d/total", large))
	if cpu <= 2*remote {
		t.Errorf("large-size CPU (%.2fs) should be much slower than remote GPU (%.2fs)", cpu, remote)
	}
	// The network delay is small next to the kernel time at quick-sweep
	// sizes, so allow a little measurement noise in the comparison.
	if remote < 0.95*local {
		t.Errorf("remote (%.2fs) should cost at least as much as local in-band (%.2fs)", remote, local)
	}
	ratio := oob / local
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("out-of-band/in-band ratio = %.2f, want near 1", ratio)
	}
}

// TestFig12Shape: near-linear strong scaling for warm runs and a roughly
// constant cold-start offset.
func TestFig12Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("scaling ratios need wall-clock fidelity the race detector removes")
	}
	// One retry absorbs occasional single-core scheduler noise.
	var lastErr string
	for attempt := 0; attempt < 2; attempt++ {
		table, err := Fig12StrongScaling(quickOpts())
		if err != nil {
			t.Fatalf("Fig12a: %v", err)
		}
		warm1 := get(t, table, "warm/1")
		warm4 := get(t, table, "warm/4")
		speedup := warm1 / warm4
		cold1 := get(t, table, "cold/1")
		cold4 := get(t, table, "cold/4")
		off1 := cold1 - warm1
		off4 := cold4 - warm4
		lastErr = ""
		if speedup < 2.5 || speedup > 6 {
			lastErr = fmt.Sprintf("4-GPU strong-scaling speedup = %.2f, want near 4", speedup)
		} else if off1 < 0.3 || off4 < 0.3 {
			lastErr = fmt.Sprintf("cold offsets %.2fs/%.2fs, want a visible constant init offset", off1, off4)
		}
		if lastErr == "" {
			return
		}
	}
	t.Error(lastErr)
}

// TestFig12WeakShape: weak scaling keeps completion time roughly flat.
func TestFig12WeakShape(t *testing.T) {
	if raceEnabled {
		t.Skip("scaling ratios need wall-clock fidelity the race detector removes")
	}
	var lastErr string
	for attempt := 0; attempt < 2; attempt++ {
		table, err := Fig12WeakScaling(quickOpts())
		if err != nil {
			t.Fatalf("Fig12b: %v", err)
		}
		warm1 := get(t, table, "warm/1")
		warm4 := get(t, table, "warm/4")
		ratio := warm4 / warm1
		lastErr = ""
		if ratio < 0.65 || ratio > 1.6 {
			lastErr = fmt.Sprintf("weak-scaling 4-GPU/1-GPU time ratio = %.2f, want ~1", ratio)
		}
		if lastErr == "" {
			return
		}
	}
	t.Error(lastErr)
}

// TestFig13Shape: runners scale out with clients but stay at or below the
// device count, and tasks keep completing.
func TestFig13Shape(t *testing.T) {
	table, err := Fig13Autoscaling(quickOpts())
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	peak := get(t, table, "peak_runners")
	if peak < 2 {
		t.Errorf("peak runners = %.0f, want >= 2 (scale-out)", peak)
	}
	if peak > 8 {
		t.Errorf("peak runners = %.0f, want <= 8 (one per GPU)", peak)
	}
	if got := get(t, table, "completions"); got < 20 {
		t.Errorf("completions = %.0f, want a steady stream", got)
	}
}

// TestFig14Shape: KaaS reduces completion time substantially at small
// granularity for every kernel; GA at its largest generation count loses
// the advantage (the paper's anomaly).
func TestFig14Shape(t *testing.T) {
	table, err := Fig14GPUKernels(quickOpts())
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	smallest := map[string]int{
		"dtw": 100, "ga": 64, "gnn": 256, "mci": 4096, "matmul": 1024, "qc": 4096,
	}
	for kernel, v := range smallest {
		red := get(t, table, keyf("%s/%d/reduction", kernel, v))
		if red < 0.5 {
			t.Errorf("%s small-granularity reduction = %.2f, want >= 0.5", kernel, red)
		}
	}
	gaLarge := get(t, table, "ga/4096/reduction")
	if gaLarge > 0.05 {
		t.Errorf("GA large-granularity reduction = %.2f, want <= 0.05 (paper: -5.8%%)", gaLarge)
	}
	mmLarge := get(t, table, "matmul/16384/reduction")
	if mmLarge <= gaLarge {
		t.Errorf("matmul large reduction (%.2f) should exceed GA's (%.2f)", mmLarge, gaLarge)
	}
}

// TestFig15Shape: both FPGA kernels see the paper's large reductions.
func TestFig15Shape(t *testing.T) {
	table, err := Fig15FPGA(quickOpts())
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	for _, kernel := range []string{"histogram", "bitmap"} {
		red := get(t, table, kernel+"/reduction")
		if red < 0.5 || red > 0.9 {
			t.Errorf("%s reduction = %.2f, want in [0.5, 0.9] (paper: 68.5%%/74.9%%)", kernel, red)
		}
	}
}

// TestFig16Shape: KaaS removes TPU management from the critical path; the
// exclusive model's whole-board kernels beat shared per-chip kernels.
func TestFig16Shape(t *testing.T) {
	tableA, err := Fig16TPUKernelTime(quickOpts())
	if err != nil {
		t.Fatalf("Fig16a: %v", err)
	}
	n := 7000
	exclTPU := get(t, tableA, keyf("exclusive/%d/tpu", n))
	sharedTPU := get(t, tableA, keyf("shared/%d/tpu", n))
	kaasTPU := get(t, tableA, keyf("kaas/%d/tpu", n))
	if kaasTPU >= exclTPU*0.35 {
		t.Errorf("KaaS TPU time %.2fs vs exclusive %.2fs, want >= 65%% reduction (paper: 81.3-99.6%%)",
			kaasTPU, exclTPU)
	}
	if exclTPU >= sharedTPU {
		t.Errorf("exclusive TPU time (%.2fs) should beat shared (%.2fs): whole board per kernel",
			exclTPU, sharedTPU)
	}

	tableB, err := Fig16TPUTotalTime(quickOpts())
	if err != nil {
		t.Fatalf("Fig16b: %v", err)
	}
	exclTotal := get(t, tableB, keyf("exclusive/%d/total", n))
	kaasTotal := get(t, tableB, keyf("kaas/%d/total", n))
	if red := 1 - kaasTotal/exclTotal; red < 0.8 {
		t.Errorf("total-time reduction = %.2f, want >= 0.8 (paper: 95.9-98.6%%)", red)
	}
}

// TestFig17Shape: every backend sees a reduction in the paper's band.
func TestFig17Shape(t *testing.T) {
	var lastErr string
	for attempt := 0; attempt < 2; attempt++ {
		table, err := Fig17QPU(quickOpts())
		if err != nil {
			t.Fatalf("Fig17: %v", err)
		}
		lastErr = ""
		for _, backend := range []string{"qasm", "mps", "statevector", "falcon-r5.11h", "falcon-r4t"} {
			red := get(t, table, backend+"/reduction")
			if red < 0.15 || red > 0.55 {
				lastErr = fmt.Sprintf("%s reduction = %.2f, want in [0.15, 0.55] (paper: 27-35%%)", backend, red)
			}
		}
		// The Falcon r4T shows the smallest benefit, as in the paper. Its
		// expected margin below the simulators is a few percentage
		// points, so allow timer-jitter slack.
		r4t := get(t, table, "falcon-r4t/reduction")
		qasm := get(t, table, "qasm/reduction")
		if r4t >= qasm+0.05 {
			lastErr = fmt.Sprintf("r4t reduction (%.2f) should be below qasm's (%.2f)", r4t, qasm)
		}
		if lastErr == "" {
			return
		}
	}
	t.Error(lastErr)
}

// keyf formats a Values key.
func keyf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
