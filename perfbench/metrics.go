package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// endToEndNames are the gated metrics, in report order, with units.
var endToEndNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ingest_records_per_s", "rec/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
	{"summary_p50_ms", "ms"},
	{"summary_p90_ms", "ms"},
	{"drive_p50_ms", "ms"},
	{"drive_p90_ms", "ms"},
	{"retained_heap_mb", "MB"},
}

// perLayerNames are the traced run's metrics, in report order.
var perLayerNames = []struct{ name, unit string }{
	{"synth.generate_s", "s"},
	{"core.characterize_s", "s"},
	{"core.characterize_allocs", "count"},
	{"core.characterize_alloc_mb", "MB"},
	{"server.start_s", "s"},
	{"loadgen.transport_ms_p50", "ms"},
	{"loadgen.retries", "count"},
	{"loadgen.ingest_p99_ms", "ms"},
	{"loadgen.phase_records_per_s", "rec/s"},
	{"loadgen.read_late_ms_p90", "ms"},
	{"server.ingest_ms_p50", "ms"},
	{"server.request_bytes_per_record", "B"},
	{"server.ack_bytes_per_batch", "B"},
	{"server.shed_429", "count"},
	{"server.summary_ms_p50", "ms"},
	{"server.drive_ms_p50", "ms"},
	{"wire.decode_us_per_batch", "us"},
	{"wire.decode_allocs_per_batch", "count"},
	{"wire.split_us_per_batch", "us"},
	{"persist.logbatch_us_per_batch", "us"},
	{"persist.wal_bytes_per_record", "B"},
	{"persist.ship_requests_per_batch", "ratio"},
	{"persist.follower_apply_ms_p50", "ms"},
	{"persist.ack_wait_ms_p50", "ms"},
	{"persist.ship_errors", "count"},
	{"persist.snapshot_ms", "ms"},
	{"persist.restore_ms", "ms"},
	{"fleet.ingest_us_per_batch", "us"},
	{"fleet.ingest_allocs_per_batch", "count"},
	{"monitor.score_ns_per_record", "ns"},
	{"fleet.alerts_per_1k_records", "count"},
	{"fleet.quarantine_ratio", "ratio"},
	{"fleet.shard_skew", "ratio"},
	{"fleet.summary_ms_p50", "ms"},
	{"fleet.drive_us_p50", "us"},
	{"route.ingest_ms_p50", "ms"},
	{"route.self_ms_p50", "ms"},
	{"route.subrequests_per_batch", "ratio"},
	{"route.node_skew", "ratio"},
	{"route.summary_ms_p50", "ms"},
	{"route.summary_merge_ms_p50", "ms"},
	{"route.forward_retries", "count"},
	{"runtime.alloc_bytes_per_record", "B"},
	{"runtime.gc_cycles_per_1m_records", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
}

// minClean is the fewest undisturbed windows a run reports from; a
// run with fewer reports over all its windows.
const minClean = 10

// cleanWindows marks the measured windows host steal did not disturb.
// If fewer than minClean are clean, every window counts.
func cleanWindows(ph *phase) []bool {
	clean := make([]bool, ph.windows)
	n := 0
	for i := range clean {
		clean[i] = !ph.steal.disturbed(ph.winStart[i], ph.winEnd[i])
		n += btoi(clean[i])
	}
	if n < minClean {
		for i := range clean {
			clean[i] = true
		}
	}
	return clean
}

// e2eOf computes the gated metrics over the undisturbed measured
// windows and reads that keep(traced) selects. A failed request counts
// wherever it falls: it missed every percentile.
func e2eOf(ph *phase, clean []bool, keep func(traced bool) bool, strict bool) (map[string]float64, map[string]int, error) {
	out := map[string]float64{}
	counts := map[string]int{}
	var recs []int
	var secs []float64
	for i := range ph.winRecords {
		if clean[i] && keep(ph.winTraced[i]) {
			recs = append(recs, ph.winRecords[i])
			secs = append(secs, ph.winSeconds[i])
		}
	}
	out["ingest_records_per_s"] = median(windowRates(recs, secs))
	counts["windows"] = len(recs)
	// Reads are judged one by one; a kind with too few undisturbed
	// reads for its p90 even after the phase ran on reports over all of
	// its reads.
	lat, all := map[int][]float64{}, map[int][]float64{}
	for _, s := range ph.samples {
		switch {
		case s.kind == kindIngest && s.window < 0, !keep(s.traced):
			continue
		case s.kind == kindIngest:
			if !s.ok() || clean[s.window] {
				lat[s.kind] = append(lat[s.kind], s.latencyMs())
			}
			continue
		}
		all[s.kind] = append(all[s.kind], s.latencyMs())
		if !s.ok() || !ph.steal.disturbed(s.due, s.end) {
			lat[s.kind] = append(lat[s.kind], s.latencyMs())
		} else {
			counts["reads_disturbed"]++
		}
	}
	for _, kind := range []int{kindSummary, kindDrive} {
		if beyond(len(lat[kind]), 0.9) < minTail {
			lat[kind] = all[kind]
			counts[kindName[kind]+"_unfiltered"] = 1
		}
	}
	for _, k := range []struct {
		kind   int
		prefix string
	}{{kindIngest, "ingest"}, {kindSummary, "summary"}, {kindDrive, "drive"}} {
		xs := lat[k.kind]
		counts[k.prefix+"_samples"] = len(xs)
		sort.Float64s(xs)
		for _, p := range []struct {
			name string
			q    float64
		}{{"_p50_ms", 0.5}, {"_p90_ms", 0.9}} {
			v, err := percentile(xs, p.q)
			if err != nil {
				if strict {
					return nil, nil, fmt.Errorf("%s%s: %w", k.prefix, p.name, err)
				}
				v = math.NaN()
			}
			out[k.prefix+p.name] = v
		}
	}
	return out, counts, nil
}

// endToEnd fills the gated metrics and the failure accounting. A traced
// run reports them over all its windows and reads, leaving out any
// percentile its sample cannot support, and beside them the metrics of
// its traced and untraced halves and the relative overhead.
func endToEnd(res *result, cfg config, ph *phase, setups []setupTimes) error {
	var totals []float64
	for _, t := range setups {
		totals = append(totals, t.total)
	}
	res.E2E["setup_s"] = median(totals)
	for _, s := range ph.samples {
		if s.kind == kindIngest && s.window < 0 {
			continue
		}
		res.Attempted++
		if !s.ok() {
			res.Failed++
		}
	}
	res.Counts["measured_records"] = ph.records
	res.Counts["retries"] = ph.retries
	res.Counts["windows_measured"] = ph.windows
	clean := cleanWindows(ph)
	all := func(bool) bool { return true }
	if !cfg.trace {
		m, counts, err := e2eOf(ph, clean, all, true)
		if err != nil {
			return err
		}
		for k, v := range m {
			res.E2E[k] = v
		}
		for k, v := range counts {
			res.Counts[k] = v
		}
		return nil
	}
	traced, tc, _ := e2eOf(ph, clean, func(t bool) bool { return t }, false)
	untraced, uc, _ := e2eOf(ph, clean, func(t bool) bool { return !t }, false)
	res.Traced, res.Untraced, res.Overhead = map[string]any{}, map[string]any{}, map[string]any{}
	for k, v := range traced {
		res.Traced[k] = jsonNum(v)
		res.Untraced[k] = jsonNum(untraced[k])
		res.Overhead[k+"_pct"] = jsonNum((v - untraced[k]) / untraced[k] * 100)
	}
	for k, v := range tc {
		res.Traced[k] = v
		res.Untraced[k] = uc[k]
	}
	// Tracing is off during set-up and its spans are dropped before the
	// heap is read, so neither metric can carry tracing overhead.
	res.Overhead["setup_s_pct"] = 0.0
	res.Overhead["retained_heap_mb_pct"] = 0.0
	m, counts, err := e2eOf(ph, clean, all, false)
	if err != nil {
		return err
	}
	for k, v := range m {
		if !math.IsNaN(v) {
			res.E2E[k] = v
		}
	}
	for k, v := range counts {
		res.Counts[k] = v
	}
	return nil
}

// jsonNum maps a non-finite value (a percentile the sample cannot
// support) to null.
func jsonNum(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}

// p50 is the median of xs, 0 for none.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// setupLayers are the training and start-up layer metrics: medians
// over the run's set-ups.
func setupLayers(setups []setupTimes) map[string]float64 {
	col := func(f func(setupTimes) float64) float64 {
		var xs []float64
		for _, t := range setups {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	return map[string]float64{
		"synth.generate_s":           col(func(t setupTimes) float64 { return t.generate }),
		"core.characterize_s":        col(func(t setupTimes) float64 { return t.characterize }),
		"core.characterize_allocs":   col(func(t setupTimes) float64 { return t.allocs }),
		"core.characterize_alloc_mb": col(func(t setupTimes) float64 { return t.allocMB }),
		"server.start_s":             col(func(t setupTimes) float64 { return t.start }),
	}
}

// spanLayers derives the per-layer metrics that come from spans,
// client samples, /metrics deltas and runtime statistics.
func spanLayers(res *result, w workload, ph *phase) map[string]float64 {
	L := map[string]float64{}
	spans := ph.spans
	children := map[int][]int{}
	byID := map[int64]int{}
	durs := map[string][]float64{} // layer:kind -> span ms
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
		if s.id != 0 {
			byID[s.id] = i
		}
		durs[s.layer+":"+s.kind] = append(durs[s.layer+":"+s.kind], s.ms())
	}

	// Client and transport.
	var transport, ingest, late []float64
	var reqBytes, rspBytes int64
	okIngest := 0
	for _, s := range ph.samples {
		switch {
		case s.kind == kindIngest && s.window >= 0:
			ingest = append(ingest, s.latencyMs())
			if s.ok() {
				okIngest++
				reqBytes += s.reqBytes
				rspBytes += s.rspBytes
			}
			if i, ok := byID[s.id]; ok && s.id != 0 && s.ok() {
				transport = append(transport, float64(s.end-s.start)/float64(time.Millisecond)-spans[i].ms())
			}
		case s.kind != kindIngest:
			late = append(late, float64(s.start-s.due)/float64(time.Millisecond))
		}
	}
	L["loadgen.transport_ms_p50"] = p50(transport)
	L["loadgen.retries"] = float64(ph.retries)
	if lat, err := summarizeLatency(ingest); err == nil {
		L["loadgen.ingest_p99_ms"] = lat.P99
	}
	total := 0.0
	for _, s := range ph.winSeconds {
		total += s
	}
	L["loadgen.phase_records_per_s"] = float64(ph.records) / total
	sort.Float64s(late)
	L["loadgen.read_late_ms_p90"], _ = percentile(late, 0.9)

	// Server handlers: storage nodes only, follower excluded.
	L["server.ingest_ms_p50"] = p50(durs["node:ingest"])
	L["server.summary_ms_p50"] = p50(durs["node:summary"])
	L["server.drive_ms_p50"] = p50(durs["node:drive"])
	L["server.request_bytes_per_record"] = float64(reqBytes) / float64(ph.records)
	if okIngest > 0 {
		L["server.ack_bytes_per_batch"] = float64(rspBytes) / float64(okIngest)
	}

	// Counters: /metrics deltas over the measured phase.
	var rows, quarantined, alerts, shed, nodeReqs float64
	var nodeRows, shardDrives []float64
	for id, after := range ph.after {
		if id == "router" || id == "follower" {
			continue
		}
		before := ph.before[id]
		r := delta(before, after, "ingest.rows_ingested")
		rows += r
		nodeRows = append(nodeRows, r)
		quarantined += delta(before, after, "ingest.rows_quarantined")
		alerts += delta(before, after, "alerts.watch") + delta(before, after, "alerts.warning") + delta(before, after, "alerts.critical")
		shed += delta(before, after, "requests.shed")
		nodeReqs += delta(before, after, "ingest.requests_json") + delta(before, after, "ingest.requests_binary")
		shardDrives = append(shardDrives, after.shardDrives()...)
	}
	L["server.shed_429"] = shed
	if rows > 0 {
		L["fleet.alerts_per_1k_records"] = alerts / rows * 1000
		L["fleet.quarantine_ratio"] = quarantined / rows
	}
	L["fleet.shard_skew"] = skew(shardDrives)

	// Replication.
	if w.topology == topoReplicated {
		b, a := ph.before["primary"], ph.after["primary"]
		if batches := delta(b, a, "persist.wal_batches"); batches > 0 {
			L["persist.ship_requests_per_batch"] = delta(b, a, "replication.shipper.frames_shipped") / batches
		}
		L["persist.ship_errors"] = delta(b, a, "replication.shipper.ship_errors")
		var apply, wait []float64
		lastShip := map[int]time.Duration{}
		for _, s := range spans {
			if s.layer != "follower" || s.kind != "ship" || s.reqBytes <= heartbeatBytes {
				continue
			}
			apply = append(apply, s.ms())
			if s.parent >= 0 {
				lastShip[s.parent] = max(lastShip[s.parent], s.start)
			}
		}
		for p, start := range lastShip {
			wait = append(wait, float64(spans[p].end-start)/float64(time.Millisecond))
		}
		L["persist.follower_apply_ms_p50"] = p50(apply)
		L["persist.ack_wait_ms_p50"] = p50(wait)
	}

	// Router.
	if w.topology == topoRouted {
		b, a := ph.before["router"], ph.after["router"]
		L["route.forward_retries"] = delta(b, a, "router.forward_retries")
		if batches := delta(b, a, "router.ingest_batches"); batches > 0 {
			L["route.subrequests_per_batch"] = nodeReqs / batches
		}
		L["route.node_skew"] = skew(nodeRows)
		var self, merge []float64
		for i, s := range spans {
			if s.layer != "router" {
				continue
			}
			ms := float64(selfTime(spans, children, i)) / float64(time.Millisecond)
			switch s.kind {
			case "ingest":
				self = append(self, ms)
			case "summary":
				merge = append(merge, ms)
			}
		}
		L["route.ingest_ms_p50"] = p50(durs["router:ingest"])
		L["route.summary_ms_p50"] = p50(durs["router:summary"])
		L["route.self_ms_p50"] = p50(self)
		L["route.summary_merge_ms_p50"] = p50(merge)
	}

	// Go runtime, whole process, over the write phase.
	recs := float64(ph.records)
	L["runtime.alloc_bytes_per_record"] = float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / recs
	L["runtime.gc_cycles_per_1m_records"] = float64(ph.mem1.NumGC-ph.mem0.NumGC) / recs * 1e6
	L["runtime.gc_pause_ms_total"] = float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs) / 1e6
	res.Counts["spans"] = len(spans)
	return L
}

// heartbeatBytes bounds the body of an empty (heartbeat) ship request:
// the ship header alone. Larger requests carry WAL frames.
const heartbeatBytes = 64
