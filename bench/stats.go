package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks. vals is sorted in place. An empty
// sample yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return percentileSorted(vals, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// windowedP99 splits the samples into n equal sub-windows of [t0, t1) by
// their timestamp, takes each sub-window's p99 and returns the median of
// those. A plain p99 over a 10 s run moved 18 % run to run on the sizing
// box because one GC or scheduler stall owns the whole tail; the median of
// sub-window tails discards the windows such a stall lands in. Sub-windows
// without samples are skipped.
func windowedP99(at, vals []float64, t0, t1 float64, n int) float64 {
	if len(vals) == 0 || n < 1 || t1 <= t0 {
		return 0
	}
	buckets := make([][]float64, n)
	width := (t1 - t0) / float64(n)
	for i, t := range at {
		b := int((t - t0) / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		buckets[b] = append(buckets[b], vals[i])
	}
	var tails []float64
	for _, b := range buckets {
		if len(b) > 0 {
			tails = append(tails, percentile(b, 99))
		}
	}
	return median(tails)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
