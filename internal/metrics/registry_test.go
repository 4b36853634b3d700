package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Counter = %d, want 5", got)
	}
	var g Gauge
	g.Inc()
	g.Add(10)
	g.Dec()
	if got := g.Value(); got != 10 {
		t.Errorf("Gauge = %d, want 10", got)
	}
	g.Add(-15)
	if got := g.Value(); got != -5 {
		t.Errorf("Gauge = %d, want -5 (gauges may go negative)", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("Gauge = %d after Set, want 7", got)
	}
}

func TestRegistryGetOrCreateReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("hits", "kernel", "matmul")
	c2 := r.Counter("hits", "kernel", "matmul")
	if c1 != c2 {
		t.Error("same (name, labels) returned distinct counters")
	}
	if c3 := r.Counter("hits", "kernel", "mci"); c3 == c1 {
		t.Error("different labels share a counter")
	}
	if g1, g2 := r.Gauge("depth"), r.Gauge("depth"); g1 != g2 {
		t.Error("same gauge name returned distinct gauges")
	}
	if h1, h2 := r.Histogram("lat"), r.Histogram("lat"); h1 != h2 {
		t.Error("same histogram name returned distinct histograms")
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c", "k", "v").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "k", "v").Value(); got != 1600 {
		t.Errorf("concurrent increments = %d, want 1600", got)
	}
}

func TestRenderLabelsPanicsOnOddList(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd label list did not panic")
		}
	}()
	NewRegistry().Counter("c", "keyWithoutValue")
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram not all-zero: count=%d sum=%v min=%v max=%v mean=%v",
			h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) of empty histogram = %v, want 0", q, got)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(7 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	if h.Min() != 7*time.Millisecond || h.Max() != 7*time.Millisecond {
		t.Errorf("min/max = %v/%v, want 7ms/7ms", h.Min(), h.Max())
	}
	// Every quantile of a single observation is that observation: the
	// in-bucket interpolation must clamp to the observed min and max
	// rather than report a bucket bound the sample never reached.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 7*time.Millisecond {
			t.Errorf("Quantile(%v) = %v, want 7ms", q, got)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond)
	h.Observe(time.Hour) // beyond the last bound: overflow bucket
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	// The high quantile's rank lands in the overflow bucket, whose only
	// defensible estimate is the observed max.
	if got := h.Quantile(0.99); got != time.Hour {
		t.Errorf("Quantile(0.99) = %v, want 1h (observed max)", got)
	}
	snap := h.Snapshot()
	if len(snap.Buckets) != 2 {
		t.Fatalf("snapshot has %d buckets, want 2", len(snap.Buckets))
	}
	if snap.Buckets[1].CumulativeCount != 1 {
		t.Errorf("cumulative count at 10ms = %d, want 1 (1h overflows)", snap.Buckets[1].CumulativeCount)
	}
}

func TestHistogramNegativeObservationCountsAsZero(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(-time.Second)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative observation: min=%v max=%v count=%d, want 0/0/1",
			h.Min(), h.Max(), h.Count())
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	h := NewLatencyHistogram()
	// 100 observations, 1..100 ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 25*time.Millisecond || p50 > 75*time.Millisecond {
		t.Errorf("P50 = %v, want within bucket-resolution of 50ms", p50)
	}
	if p99 < 90*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("P99 = %v, want within bucket-resolution of 99ms", p99)
	}
	if p50 > p99 {
		t.Errorf("P50 %v > P99 %v", p50, p99)
	}
	if h.Mean() != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", h.Mean())
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond})
	h.Observe(time.Millisecond)        // first bucket (bounds are inclusive)
	h.Observe(1500 * time.Microsecond) // second bucket
	h.Observe(4 * time.Millisecond)    // third bucket
	snap := h.Snapshot()
	want := []uint64{1, 2, 3}
	for i, b := range snap.Buckets {
		if b.CumulativeCount != want[i] {
			t.Errorf("bucket %v cumulative = %d, want %d", b.UpperBound, b.CumulativeCount, want[i])
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Help("kaas_invocations_total", "Total invocations.")
	r.Counter("kaas_invocations_total", "kernel", "matmul").Add(3)
	r.Counter("kaas_invocations_total", "kernel", "mci").Add(1)
	r.Gauge("kaas_in_flight").Set(2)
	r.Histogram("kaas_latency_seconds", "kernel", "matmul").Observe(500 * time.Microsecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP kaas_invocations_total Total invocations.",
		"# TYPE kaas_invocations_total counter",
		`kaas_invocations_total{kernel="matmul"} 3`,
		`kaas_invocations_total{kernel="mci"} 1`,
		"# TYPE kaas_in_flight gauge",
		"kaas_in_flight 2",
		"# TYPE kaas_latency_seconds histogram",
		`kaas_latency_seconds_bucket{kernel="matmul",le="0.001"} 1`,
		`kaas_latency_seconds_bucket{kernel="matmul",le="0.002"} 1`,
		`kaas_latency_seconds_bucket{kernel="matmul",le="300"} 1`,
		`kaas_latency_seconds_bucket{kernel="matmul",le="+Inf"} 1`,
		`kaas_latency_seconds_sum{kernel="matmul"} 0.0005`,
		`kaas_latency_seconds_count{kernel="matmul"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Deterministic: families sorted by name, series by label set.
	if strings.Index(out, "kaas_in_flight") > strings.Index(out, "kaas_invocations_total") {
		t.Error("families not sorted by name")
	}
	if strings.Index(out, `kernel="matmul"} 3`) > strings.Index(out, `kernel="mci"`) {
		t.Error("series not sorted by label set")
	}
}

func TestWritePrometheusEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "k", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if want := `c{k="a\"b\\c\nd"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("output missing escaped series %q:\n%s", want, sb.String())
	}
}
