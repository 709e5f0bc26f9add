package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/loadgen"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/quality"
	"disksig/internal/route"
	"disksig/internal/wire"
)

// replayBatches caps how many of the run's measured batches the
// per-call replay times.
const replayBatches = 1000

// replayLayers replays the run's batches in-process through each
// layer's public entry point and records per-call times and allocation
// counts. The replay runs after the measured phase and the correctness
// checks, on fresh stores (ingest) or the quiescent served store
// (reads, snapshot).
func replayLayers(L map[string]float64, w workload, st *stack, ff *fixedFleet, tm trained, windows int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warm := ff.warmup(false)
	var batches [][]fleet.Observation
	for win := 0; win < windows && len(batches) < replayBatches; win++ {
		for _, q := range ff.window(win, w.window, false) {
			for _, b := range q {
				batches = append(batches, b.Obs)
			}
		}
	}
	batches = batches[:min(len(batches), replayBatches)]
	records := 0
	for _, b := range batches {
		records += len(b)
	}
	var m0, m1 runtime.MemStats
	timeEach := func(f func(i int)) []float64 {
		us := make([]float64, len(batches))
		runtime.ReadMemStats(&m0)
		for i := range batches {
			t0 := time.Now()
			f(i)
			us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}
		runtime.ReadMemStats(&m1)
		return us
	}
	allocsPer := func() float64 { return float64(m1.Mallocs-m0.Mallocs) / float64(len(batches)) }

	// wire: decode with a warm decoder, as the server's pooled decoders
	// are; split into two parts by rendezvous placement.
	frames := make([][]byte, len(batches))
	for i, b := range batches {
		frames[i] = wire.EncodeBatch(b)
	}
	dec := new(wire.Decoder)
	for _, f := range frames {
		var rep quality.Report
		if _, err := dec.Decode(f, &rep); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
	}
	var derr error
	us := timeEach(func(i int) {
		var rep quality.Report
		if _, err := dec.Decode(frames[i], &rep); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return fmt.Errorf("replay decode: %w", derr)
	}
	L["wire.decode_us_per_batch"] = median(us)
	L["wire.decode_allocs_per_batch"] = allocsPer()
	m := st.routeMap
	if m == nil {
		var err error
		if m, err = route.NewMap(1, []route.Node{{ID: "n1", URL: "http://n1"}, {ID: "n2", URL: "http://n2"}}); err != nil {
			return err
		}
	}
	us = timeEach(func(i int) {
		var rep quality.Report
		if _, err := wire.SplitFrame(frames[i], len(m.Nodes), m.OwnerIndex, &rep); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return fmt.Errorf("replay split: %w", derr)
	}
	L["wire.split_us_per_batch"] = median(us)
	frames = nil

	// persist: WAL encode + append, with a no-op apply.
	mgr, err := persist.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	noop := func() fleet.BatchResult { return fleet.BatchResult{} }
	us = timeEach(func(i int) {
		if _, _, err := mgr.LogBatch(batches[i], noop); err != nil {
			derr = err
		}
	})
	ps := mgr.Stats()
	if err := mgr.Close(); err != nil || derr != nil {
		return fmt.Errorf("replay WAL: %v %v", derr, err)
	}
	L["persist.logbatch_us_per_batch"] = median(us)
	L["persist.wal_bytes_per_record"] = float64(ps.WALBytes) / float64(ps.WALRows)

	// fleet: batch ingest into a fresh diskserve-configured store that
	// already tracks every drive.
	store, err := fleet.New(tm.models, tm.norm, fleetConfig())
	if err != nil {
		return err
	}
	for _, q := range warm {
		for _, b := range q {
			store.IngestBatch(b.Obs)
		}
	}
	us = timeEach(func(i int) { store.IngestBatch(batches[i]) })
	L["fleet.ingest_us_per_batch"] = median(us)
	L["fleet.ingest_allocs_per_batch"] = allocsPer()
	store = nil

	// monitor: one Monitor scoring the same records, no shards or locks.
	mon, err := monitor.New(tm.models, tm.norm, monitor.Config{})
	if err != nil {
		return err
	}
	ids := map[string]int{}
	for i, s := range ff.serials {
		ids[s] = i
	}
	for _, q := range warm {
		for _, b := range q {
			for _, o := range b.Obs {
				mon.IngestClass(ids[o.Serial], o.Class, o.Record)
			}
		}
	}
	t0 := time.Now()
	for _, b := range batches {
		for _, o := range b {
			mon.IngestClass(ids[o.Serial], o.Class, o.Record)
		}
	}
	L["monitor.score_ns_per_record"] = float64(time.Since(t0).Nanoseconds()) / float64(records)

	// fleet reads on the served, quiescent stores.
	var sumMs, driveUs []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		s := st.nodes[i%len(st.nodes)].store
		t := time.Now()
		s.Summary(10)
		sumMs = append(sumMs, float64(time.Since(t))/float64(time.Millisecond))
	}
	for i := 0; i < 2000; i++ {
		serial := ff.serials[rng.Intn(len(ff.serials))]
		for _, n := range st.nodes {
			t := time.Now()
			if _, ok := n.store.Drive(serial); ok {
				driveUs = append(driveUs, float64(time.Since(t))/float64(time.Microsecond))
				break
			}
		}
	}
	L["fleet.summary_ms_p50"] = median(sumMs)
	L["fleet.drive_us_p50"] = median(driveUs)

	// persist: snapshot of the first node's served state, then a warm
	// restore of it.
	snapDir := filepath.Join(dir, "snap")
	smgr, err := persist.Open(snapDir)
	if err != nil {
		return err
	}
	info, err := smgr.Snapshot(st.nodes[0].store)
	if cerr := smgr.Close(); err != nil || cerr != nil {
		return fmt.Errorf("replay snapshot: %v %v", err, cerr)
	}
	L["persist.snapshot_ms"] = float64(info.Duration) / float64(time.Millisecond)
	_, rmgr, _, took, err := loadgen.RestoreStore(snapDir, fleetConfig())
	if err != nil {
		return err
	}
	L["persist.restore_ms"] = float64(took) / float64(time.Millisecond)
	return rmgr.Close()
}
