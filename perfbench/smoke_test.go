package main

import (
	"context"
	"io"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, traced, with one set-up: every
// correctness check must pass and every per-layer metric must be
// reported. A traced run reports percentiles its short sample cannot
// support as missing instead of failing, which is what lets it be short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the serving stack")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(context.Background(), config{
				workload: w, seed: 5, seconds: time.Second, trace: true,
				stateDir: t.TempDir(), setups: 1, log: io.Discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if c.Err != "" {
					t.Errorf("check %s: %s", c.Name, c.Err)
				}
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("attempted %d requests, %d failed", res.Attempted, res.Failed)
			}
			for _, m := range perLayerNames {
				if _, ok := res.Layers[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
		})
	}
}

// TestSmokeEndToEnd is an untraced run of the single-node workload: its
// reads follow the writes for a fixed count, so even a one-second run
// supports every gated percentile.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the serving stack")
	}
	res, err := run(context.Background(), config{
		workload: workloads[0], seed: 6, seconds: time.Second,
		stateDir: t.TempDir(), setups: 1, log: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("checks failed: %+v", res.Checks)
	}
	for _, m := range endToEndNames {
		if v, ok := res.E2E[m.name]; !ok || !(v > 0) {
			t.Errorf("end-to-end metric %s = %v, %v", m.name, v, ok)
		}
	}
}
