package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"disksig/internal/loadgen"
)

// offPathBatches is how many of the run's batches an off-path replay
// stack ingests, and offPathSummaries how many summaries it serves.
const (
	offPathBatches   = 200
	offPathSummaries = 25
)

// offPathLayers measures the layers the workload's own path bypasses —
// the router for the single-node workloads, WAL shipping to a follower
// for the others — on a small stack of that topology of their own: the
// run's warm-up round and its first batches are pushed through it with
// tracing on, and only that layer's metrics are kept. The names of the
// metrics measured this way are returned.
func offPathLayers(ctx context.Context, L map[string]float64, w workload, tm trained, ff *fixedFleet, dir string, tr *tracer) ([]string, error) {
	var names []string
	for _, top := range []topology{topoRouted, topoReplicated} {
		if top == w.topology {
			continue
		}
		rw := w
		rw.topology = top
		m, err := offPathRun(ctx, rw, tm, ff, filepath.Join(dir, fmt.Sprintf("offpath%d", top)), tr)
		if err != nil {
			return nil, err
		}
		for _, k := range offPathNames(top) {
			L[k] = m[k]
			names = append(names, k)
		}
	}
	return names, nil
}

// offPathNames are the per-layer metrics a topology alone exercises.
func offPathNames(top topology) []string {
	var out []string
	for _, n := range perLayerNames {
		switch {
		case top == topoRouted && strings.HasPrefix(n.name, "route."):
			out = append(out, n.name)
		case top == topoReplicated && (n.name == "persist.ship_requests_per_batch" || n.name == "persist.follower_apply_ms_p50" ||
			n.name == "persist.ack_wait_ms_p50" || n.name == "persist.ship_errors"):
			out = append(out, n.name)
		}
	}
	return out
}

func offPathRun(ctx context.Context, rw workload, tm trained, ff *fixedFleet, dir string, tr *tracer) (map[string]float64, error) {
	st, err := startStack(rw, tm.models, tm.norm, dir, tr)
	if err != nil {
		return nil, fmt.Errorf("off-path stack: %w", err)
	}
	defer st.stop()
	probe := newClient(2, nil)
	defer probe.CloseIdleConnections()
	ph := &phase{}
	if ph.before, err = scrapeAll(probe, st); err != nil {
		return nil, err
	}
	drv := &loadgen.Driver{BaseURL: st.entry, Client: newClient(rw.writers, nil)}
	defer drv.Client.CloseIdleConnections()
	tr.rec.traced.Store(true)
	defer tr.rec.traced.Store(false)
	q := ff.warmup(true)
	for win := 0; ; win++ {
		stats, err := drv.Run(ctx, loadgen.Phase{Name: "off-path", Clients: rw.writers}, q)
		if err != nil {
			return nil, fmt.Errorf("off-path ingest: %w", err)
		}
		if win > 0 {
			ph.records += stats.RecordsSent
		}
		if ph.records >= offPathBatches*batchSize {
			break
		}
		q = ff.window(win, rw.window, true)
	}
	var sum map[string]any
	for i := 0; i < offPathSummaries; i++ {
		if err := getJSON(probe, st.entry+"/v1/fleet/summary", &sum); err != nil {
			return nil, fmt.Errorf("off-path summary: %w", err)
		}
	}
	if ph.after, err = scrapeAll(probe, st); err != nil {
		return nil, err
	}
	ph.spans = tr.take()
	return spanLayers(&result{Counts: map[string]int{}}, rw, ph), nil
}
