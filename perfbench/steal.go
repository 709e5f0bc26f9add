package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// stealMargin is how long after an interval ends a steal sample must
// be taken to count for it: the guest kernel books a stolen stretch at
// the first scheduler tick after the vCPU runs again, and ticks come
// every 4 ms (HZ=250) or faster.
const stealMargin = 5 * time.Millisecond

// stealTick is the unit of /proc/stat (USER_HZ = 100).
const stealTick = 10 * time.Millisecond

// stealShare is the share of an interval's CPU time the host may take
// before the interval counts as disturbed.
const stealShare = 0.10

// stealLog is a timeline of the host's steal counter: the time the
// hypervisor ran something else while this VM's vCPUs were runnable
// (/proc/stat, all CPUs, in clock ticks). On a shared host a stolen
// stretch stalls every request and window it overlaps, by tens of
// milliseconds, whatever the program does; the benchmark leaves those
// out of its timings and counts them. Samples are taken at window and
// read boundaries, outside the timed calls.
type stealLog struct {
	clock func() time.Duration
	ncpu  int

	mu sync.Mutex
	t  []time.Duration
	v  []int64
}

// readSteal returns the summed steal ticks of all CPUs, or false when
// the host does not report them.
func readSteal() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(string(f[8]), 10, 64)
	return v, err == nil
}

// sample appends the current counter to the timeline.
func (l *stealLog) sample() {
	v, ok := readSteal()
	if !ok {
		return
	}
	l.mu.Lock()
	l.t = append(l.t, l.clock())
	l.v = append(l.v, v)
	l.mu.Unlock()
}

// disturbed reports whether the steal booked between the last sample
// at or before a and the first sample at least stealMargin after b
// exceeds stealShare of the CPU time those samples span. An interval
// the timeline does not bracket counts as undisturbed: the host reports
// no steal, or the interval lies outside the samples.
func (l *stealLog) disturbed(a, b time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := lastAtOrBefore(l.t, a)
	j := firstAtOrAfter(l.t, b+stealMargin)
	if i < 0 || j >= len(l.t) {
		return false
	}
	stolen := time.Duration(l.v[j]-l.v[i]) * stealTick
	return float64(stolen) > stealShare*float64(l.t[j]-l.t[i])*float64(l.ncpu)
}

// covers reports whether the timeline already has a sample stealMargin
// after b, so that an interval ending at b can be judged.
func (l *stealLog) covers(b time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.t) > 0 && l.t[len(l.t)-1] >= b+stealMargin
}

func lastAtOrBefore(ts []time.Duration, x time.Duration) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		m := (lo + hi) / 2
		if ts[m] <= x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

func firstAtOrAfter(ts []time.Duration, x time.Duration) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		m := (lo + hi) / 2
		if ts[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
