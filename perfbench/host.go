package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// hostInfo records the machine a run measured, so run-to-run spread
// can be attributed to the host rather than the program.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// RefLoopMs is the time of refLoop taken just before the measured
	// phase: a fixed CPU-only workload, so a slow host shows here.
	RefLoopMs float64 `json:"ref_loop_ms"`
}

func probeHost() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// refSink keeps the reference loop's result live.
var refSink uint64

// refLoop times 20 M steps of a xorshift generator: pure CPU, no
// memory traffic, no allocation.
func refLoop() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
