package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(2000)
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 1000}, {0.9, 1800}, {0.99, 1980}, {1, 2000}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..2000 = %v, %v; want %v", c.p*100, got, err, c.want)
		}
	}
}

// TestPercentileTailRule pins the rule that a reported percentile has
// at least minTail samples beyond it: p90 needs 100 samples, p99 1000.
func TestPercentileTailRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {20, 0.5, true}, {19, 0.5, false},
		{1000, 0.99, true}, {999, 0.99, false}, {0, 0.5, false},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", c.p*100, c.n, err, c.ok)
		}
		if c.n > 0 && c.ok && beyond(c.n, c.p) < minTail {
			t.Errorf("p%g of %d samples has %d beyond it", c.p*100, c.n, beyond(c.n, c.p))
		}
	}
}

func TestSummarizeLatencyCountsFailuresAsMisses(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 20; i++ {
		xs[i] = inf // 20 failed requests
	}
	s, err := summarizeLatency(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(s.P90, 1) || math.IsInf(s.P50, 1) {
		t.Errorf("with 20%% failed, p50=%v p90=%v; want a finite p50 and p90 = +Inf", s.P50, s.P90)
	}
	if s.P99Supported {
		t.Errorf("p99 of 100 samples reported as supported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing is not NaN")
	}
}

func TestWindowRates(t *testing.T) {
	got := windowRates([]int{1000, 2000, 500}, []float64{0.5, 1, 0})
	if len(got) != 2 || got[0] != 2000 || got[1] != 2000 {
		t.Errorf("windowRates = %v, want [2000 2000] (a zero-length window is dropped)", got)
	}
}

func TestStealDisturbed(t *testing.T) {
	ms := time.Millisecond
	l := &stealLog{ncpu: 2,
		t: []time.Duration{0, 100 * ms, 200 * ms, 300 * ms, 1300 * ms},
		v: []int64{5, 5, 8, 8, 9}}
	for _, c := range []struct {
		a, b time.Duration
		want bool
	}{
		{10 * ms, 80 * ms, false},     // bracket 0-100 ms: nothing stolen
		{110 * ms, 180 * ms, true},    // bracket 100-200 ms: 30 of 200 CPU-ms stolen
		{0, 280 * ms, false},          // bracket 0-300 ms: 30 of 600 CPU-ms, 5 %
		{310 * ms, 1200 * ms, false},  // bracket 300-1300 ms: 10 of 2000 CPU-ms
		{1250 * ms, 1295 * ms, false}, // no sample stealMargin after the end
	} {
		if got := l.disturbed(c.a, c.b); got != c.want {
			t.Errorf("disturbed(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
