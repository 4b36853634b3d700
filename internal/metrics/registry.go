package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the runtime metrics registry: lock-cheap counters,
// gauges, and fixed-bucket latency histograms that the control plane
// updates on every invocation. Metric updates are single atomic
// operations; the registry lock is only taken on first registration of a
// (name, labels) pair and when exporting, so hot paths that cache the
// returned metric pointers never contend.

// Counter is a monotonically increasing counter. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the histogram bucket upper bounds used for
// invocation latencies: roughly exponential from 1 ms to 5 min, covering
// warm sub-millisecond GPU calls up to FPGA transpilation cold starts.
// Observations beyond the last bound land in the overflow bucket.
func DefaultLatencyBuckets() []time.Duration {
	return []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		1 * time.Second, 2500 * time.Millisecond, 5 * time.Second,
		10 * time.Second, 30 * time.Second, 60 * time.Second,
		5 * time.Minute,
	}
}

// Histogram is a fixed-bucket duration histogram. Observations are two
// atomic adds plus min/max maintenance; quantiles are estimated by linear
// interpolation within the bucket containing the requested rank, clamped
// to the observed min and max. The zero value is not usable; construct
// with NewHistogram or NewLatencyHistogram.
type Histogram struct {
	bounds []time.Duration // sorted ascending bucket upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; valid when count > 0
	max    atomic.Int64 // nanoseconds; valid when count > 0
}

// NewHistogram creates a histogram with the given sorted bucket upper
// bounds.
func NewHistogram(bounds []time.Duration) *Histogram {
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h := &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// NewLatencyHistogram creates a histogram over DefaultLatencyBuckets.
func NewLatencyHistogram() *Histogram { return NewHistogram(DefaultLatencyBuckets()) }

// Observe records one duration. Negative observations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the bucket containing the rank, clamped to the
// observed min and max so single-sample and narrow distributions do not
// report bucket bounds they never reached. Returns 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	min, max := time.Duration(h.min.Load()), time.Duration(h.max.Load())
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := q * float64(total)
	var cum uint64
	lower := time.Duration(0)
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum+c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			return clampDuration(lower+time.Duration(frac*float64(ub-lower)), min, max)
		}
		cum += c
		lower = ub
	}
	// Rank lands in the overflow bucket: the best estimate is the largest
	// observation.
	return max
}

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// BucketCount is one histogram bucket in a snapshot, with the cumulative
// count of observations at or below its upper bound.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound.
	UpperBound time.Duration
	// CumulativeCount counts observations <= UpperBound.
	CumulativeCount uint64
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count         uint64
	Sum           time.Duration
	Min, Max      time.Duration
	Mean          time.Duration
	P50, P95, P99 time.Duration
	Buckets       []BucketCount
}

// Snapshot captures the histogram's current state. Concurrent Observe
// calls may tear between fields; each field is individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	var cum uint64
	s.Buckets = make([]BucketCount, len(h.bounds))
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		s.Buckets[i] = BucketCount{UpperBound: ub, CumulativeCount: cum}
	}
	return s
}

// metricKey identifies one metric instance inside a family.
type metricKey struct {
	name   string
	labels string // rendered `k1="v1",k2="v2"` form, sorted by construction
}

// Registry is a set of named metrics with label sets, exportable in the
// Prometheus text exposition format. Get-or-create methods are safe for
// concurrent use; callers on hot paths should cache the returned pointers
// so updates stay single atomic operations.
type Registry struct {
	mu       sync.RWMutex
	types    map[string]string // family name -> counter|gauge|histogram
	help     map[string]string
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		types:    make(map[string]string),
		help:     make(map[string]string),
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*Histogram),
	}
}

// Help sets the HELP text for a metric family.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// renderLabels turns alternating key, value strings into the canonical
// `k1="v1",k2="v2"` form. Panics on an odd number of arguments — label
// sets are static call sites, not data.
func renderLabels(kv []string) string {
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter returns the counter for the name and label pairs, creating it
// on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := metricKey{name, renderLabels(labels)}
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	r.types[name] = "counter"
	c = &Counter{}
	r.counters[key] = c
	return c
}

// Gauge returns the gauge for the name and label pairs, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := metricKey{name, renderLabels(labels)}
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	r.types[name] = "gauge"
	g = &Gauge{}
	r.gauges[key] = g
	return g
}

// Histogram returns the histogram for the name and label pairs, creating
// it on first use with DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	key := metricKey{name, renderLabels(labels)}
	r.mu.RLock()
	h, ok := r.hists[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	r.types[name] = "histogram"
	h = NewLatencyHistogram()
	r.hists[key] = h
	return h
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series
// sorted by label set for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()

	names := make([]string, 0, len(r.types))
	for name := range r.types {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		if help := r.help[name]; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, r.types[name]); err != nil {
			return err
		}
		switch r.types[name] {
		case "counter":
			for _, key := range sortedKeys(r.counters, name) {
				if err := writeSeries(w, name, key.labels, "", float64(r.counters[key].Value())); err != nil {
					return err
				}
			}
		case "gauge":
			for _, key := range sortedKeys(r.gauges, name) {
				if err := writeSeries(w, name, key.labels, "", float64(r.gauges[key].Value())); err != nil {
					return err
				}
			}
		case "histogram":
			for _, key := range sortedKeys(r.hists, name) {
				if err := writeHistogram(w, name, key.labels, r.hists[key]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sortedKeys returns the keys of one family in m, sorted by label set.
func sortedKeys[M any](m map[metricKey]M, name string) []metricKey {
	keys := make([]metricKey, 0, len(m))
	for key := range m {
		if key.name == name {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].labels < keys[j].labels })
	return keys
}

// writeSeries writes one `name{labels} value` line; suffix extends the
// metric name (histogram _bucket/_sum/_count lines).
func writeSeries(w io.Writer, name, labels, suffix string, v float64) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s%s %s\n", name, suffix, formatValue(v))
	} else {
		_, err = fmt.Fprintf(w, "%s%s{%s} %s\n", name, suffix, labels, formatValue(v))
	}
	return err
}

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// writeHistogram writes the cumulative _bucket series plus _sum and
// _count for one histogram, with durations expressed in seconds.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	snap := h.Snapshot()
	for _, b := range snap.Buckets {
		le := fmt.Sprintf(`le="%g"`, b.UpperBound.Seconds())
		ls := le
		if labels != "" {
			ls = labels + "," + le
		}
		if err := writeSeries(w, name, ls, "_bucket", float64(b.CumulativeCount)); err != nil {
			return err
		}
	}
	inf := `le="+Inf"`
	if labels != "" {
		inf = labels + "," + inf
	}
	if err := writeSeries(w, name, inf, "_bucket", float64(snap.Count)); err != nil {
		return err
	}
	if err := writeSeries(w, name, labels, "_sum", snap.Sum.Seconds()); err != nil {
		return err
	}
	return writeSeries(w, name, labels, "_count", float64(snap.Count))
}
