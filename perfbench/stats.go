package main

import (
	"fmt"
	"math"
	"sort"
)

var inf = math.Inf(1)

// minTail is how many samples must lie beyond a reported percentile:
// fewer, and the percentile is one or two unlucky requests, not a
// property of the program.
const minTail = 10

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankIndex(n, p) - 1
}

// rankIndex is the 0-based nearest-rank index of percentile p in n
// sorted samples: the smallest index i with (i+1)/n >= p.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank p-th percentile of sorted
// samples. It fails when fewer than minTail samples lie beyond it, so
// every reported tail rests on at least that many requests.
func percentile(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("percentile %.2f of an empty sample", p)
	}
	if p < 1 && beyond(len(sorted), p) < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d",
			p*100, len(sorted), beyond(len(sorted), p), minTail)
	}
	return sorted[rankIndex(len(sorted), p)], nil
}

// latencySummary is a latency sample set reduced to the gated median
// and p90 plus the ungated p99 diagnostic. Failed requests enter as
// +Inf: a request that failed missed every percentile.
type latencySummary struct {
	P50, P90, P99 float64
	// P99Supported is false when the sample is too small for a p99 with
	// minTail samples beyond it; P99 is then the maximum.
	P99Supported bool
}

// summarizeLatency sorts samples in place and summarizes them.
func summarizeLatency(samples []float64) (latencySummary, error) {
	sort.Float64s(samples)
	var s latencySummary
	var err error
	if s.P50, err = percentile(samples, 0.50); err != nil {
		return s, err
	}
	if s.P90, err = percentile(samples, 0.90); err != nil {
		return s, err
	}
	if p99, perr := percentile(samples, 0.99); perr == nil {
		s.P99, s.P99Supported = p99, true
	} else {
		s.P99 = samples[len(samples)-1]
	}
	return s, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowRates converts fixed-size windows (records delivered, seconds
// taken) into per-window rates.
func windowRates(records []int, seconds []float64) []float64 {
	rates := make([]float64, 0, len(records))
	for i, r := range records {
		if seconds[i] > 0 {
			rates = append(rates, float64(r)/seconds[i])
		}
	}
	return rates
}
