// Command perfbench is the serving stack's benchmark: it trains the
// paper's models from a seed, stands the real serving stack up
// in-process over loopback HTTP, drives a fixed seeded record stream
// through it, checks the outcome against an in-process shadow and
// prints the metrics. See README.md.
//
// Usage:
//
//	perfbench --workload score-binary --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: score-binary, replicated-json or routed-readwrite")
		seed     = flag.Int64("seed", 1, "workload seed: training fleet, record stream and read schedule")
		seconds  = flag.Float64("seconds", 10, "length of the measured write phase in seconds")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		stateDir = flag.String("state-dir", filepath.Join(".bench_build", "state"), "scratch directory for WALs and snapshots (removed after the run)")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		stateDir: filepath.Join(*stateDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		setups:   3,
		log:      os.Stderr,
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fail(err)
	}
	line, err := report(res, cfg.trace)
	if err != nil {
		fail(err)
	}
	fmt.Println(line)
	if !res.correct() {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// report prints the human-readable report and returns the final JSON
// line.
func report(res *result, trace bool) (string, error) {
	names, values := endToEndNames, res.E2E
	if trace {
		names, values = perLayerNames, res.Layers
	}
	out := finalLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("perfbench %s seed=%d trace=%v\n", res.Workload, res.Seed, trace)
	for _, c := range res.Checks {
		verdict := "ok"
		if c.Err != "" {
			verdict = "FAILED: " + c.Err
		}
		fmt.Printf("check %-26s %s\n", c.Name, verdict)
	}
	for _, n := range names {
		v, ok := values[n.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured (%v)", n.name, v)
		}
		out.Metrics[n.name] = metricValue{Value: v, Unit: n.unit}
		fmt.Printf("%-34s %14.6g %s\n", n.name, v, n.unit)
	}
	if trace {
		for _, n := range endToEndNames {
			if _, halves := res.Traced[n.name]; !halves {
				fmt.Printf("tracing overhead %-22s %v %s for the run, 0 %% by construction\n", n.name, res.E2E[n.name], n.unit)
				continue
			}
			fmt.Printf("tracing overhead %-22s traced %v untraced %v %s: %v %%\n",
				n.name, res.Traced[n.name], res.Untraced[n.name], n.unit, res.Overhead[n.name+"_pct"])
		}
	}
	detail, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	fmt.Printf("detail %s\n", detail)
	line, err := json.Marshal(out)
	return string(line), err
}
