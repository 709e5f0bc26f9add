package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"disksig/internal/core"
	"disksig/internal/loadgen"
	"disksig/internal/monitor"
	"disksig/internal/smart"
	"disksig/internal/synth"
)

// config is one benchmark run.
type config struct {
	workload workload
	seed     int64
	seconds  time.Duration
	trace    bool
	// stateDir holds the run's WAL and scratch files; it is removed
	// when the run ends.
	stateDir string
	// setups is how many times the run sets the stack up; setup_s is
	// the median. All but the last are torn down again.
	setups int
	log    io.Writer
}

// check is one correctness check's outcome.
type check struct {
	Name string `json:"name"`
	Err  string `json:"error,omitempty"`
}

// result is everything a run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Host      hostInfo           `json:"host"`
	Checks    []check            `json:"checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Counts    map[string]int     `json:"counts"`
	E2E       map[string]float64 `json:"end_to_end"`
	// Layers holds the per-layer metrics of a traced run; OffPath names
	// those whose layer this workload's path bypasses, measured on a
	// replay stack of that layer's topology instead.
	Layers  map[string]float64 `json:"per_layer,omitempty"`
	OffPath []string           `json:"off_path,omitempty"`
	// Traced and Untraced are a traced run's end-to-end metrics over
	// its traced and untraced windows; Overhead is their relative
	// difference.
	Traced   map[string]any `json:"traced,omitempty"`
	Untraced map[string]any `json:"untraced,omitempty"`
	Overhead map[string]any `json:"tracing_overhead,omitempty"`
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if c.Err != "" {
			return false
		}
	}
	return len(r.Checks) > 0
}

func (r *result) addCheck(name string, err error) {
	c := check{Name: name}
	if err != nil {
		c.Err = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// setupTimes are one set-up's timings.
type setupTimes struct {
	total, generate, characterize, start float64 // seconds
	allocs, allocMB                      float64
}

// trained is the output of the training layers.
type trained struct {
	models []monitor.GroupModel
	norm   *smart.Normalizer
}

// train generates the training fleet of seed and runs the paper's
// pipeline on it, as a cold diskserve does.
func train(seed int64, t *setupTimes) (trained, error) {
	gen := synth.DefaultConfig(synth.ScaleSmall)
	gen.Seed = seed
	t0 := time.Now()
	ds, err := synth.Generate(gen)
	if err != nil {
		return trained{}, err
	}
	t.generate = time.Since(t0).Seconds()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	ch, err := core.Characterize(ds, core.Config{Seed: seed})
	if err != nil {
		return trained{}, err
	}
	models, err := monitor.ModelsFromCharacterization(ch)
	if err != nil {
		return trained{}, err
	}
	t.characterize = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)
	t.allocs = float64(m1.Mallocs - m0.Mallocs)
	t.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return trained{models: models, norm: ch.Dataset.Norm}, nil
}

// alertDigest is an order-independent digest of an alert multiset. The
// served alerts are folded into it window by window, so the benchmark
// holds no per-alert memory while the program is timed.
type alertDigest struct {
	n   int
	sum uint64
}

func (d *alertDigest) add(keys []string) {
	for _, k := range keys {
		h := fnv.New64a()
		h.Write([]byte(k))
		d.sum += h.Sum64()
		d.n++
	}
}

// phase is what the measured phase leaves behind.
type phase struct {
	windows     int
	winRecords  []int
	winSeconds  []float64
	winTraced   []bool
	winStart    []time.Duration
	winEnd      []time.Duration
	records     int
	retries     int
	alerts      alertDigest
	samples     []sample
	spans       []span
	mem0, mem1  runtime.MemStats
	before      map[string]metricsDoc
	after       map[string]metricsDoc
	refLoopMs   float64
	lastSummary int
	badReads    []string
	steal       *stealLog
}

// run executes one benchmark run.
func run(ctx context.Context, cfg config) (*result, error) {
	w := cfg.workload
	res := &result{Workload: w.name, Seed: cfg.seed, Counts: map[string]int{}, E2E: map[string]float64{}}
	res.Host = probeHost()
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.stateDir)
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format+"\n", args...) }

	ff, err := newFixedFleet(cfg.seed, w.drives, w.writers, w.format)
	if err != nil {
		return nil, err
	}
	warm := ff.warmup(true)
	origin := time.Now()
	rec := newRecorder(origin)
	tr := &tracer{rec: rec, on: cfg.trace}
	probe := newClient(4, nil)
	defer probe.CloseIdleConnections()

	// Set-up, several times; the last stack is the one measured.
	var (
		st         *stack
		tm         trained
		setups     []setupTimes
		warmAlerts alertDigest
	)
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			st, tm = nil, trained{}
			runtime.GC()
		}
		var t setupTimes
		t0 := time.Now()
		if tm, err = train(cfg.seed, &t); err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
		t1 := time.Now()
		st, err = startStack(w, tm.models, tm.norm, filepath.Join(cfg.stateDir, fmt.Sprintf("setup%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("starting the stack: %w", err)
		}
		t.start = time.Since(t1).Seconds()
		drv := &loadgen.Driver{BaseURL: st.entry, Client: newClient(w.writers, nil)}
		stats, err := drv.Run(ctx, loadgen.Phase{Name: "warm-up", Clients: w.writers}, warm)
		drv.Client.CloseIdleConnections()
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		t.total = time.Since(t0).Seconds()
		setups = append(setups, t)
		if i == cfg.setups-1 {
			res.Counts["warmup_records"] = stats.RecordsSent
			warmAlerts.add(stats.AlertKeys)
		}
		logf("%s: set-up %d took %.3fs (characterize %.3fs, stack %.3fs)", w.name, i+1, t.total, t.characterize, t.start)
	}
	defer func() {
		if st != nil {
			st.stop()
		}
	}()
	// Reads ask for drives the store already tracks: a drive whose
	// warm-up record was quarantined is unknown (404) until a later
	// record is kept.
	var readable []string
	for _, serial := range ff.serials {
		for _, n := range st.nodes {
			if _, ok := n.store.Drive(serial); ok {
				readable = append(readable, serial)
				break
			}
		}
	}
	res.Counts["readable_drives"] = len(readable)
	ph, err := measure(ctx, cfg, st, ff, readable, rec, tr, probe)
	if err != nil {
		return nil, err
	}
	res.Host.RefLoopMs = ph.refLoopMs
	logf("%s: measured %d windows, %d records", w.name, ph.windows, ph.records)

	if err := endToEnd(res, cfg, ph, setups); err != nil {
		return nil, err
	}
	var layers map[string]float64
	if cfg.trace {
		layers = spanLayers(res, w, ph)
	}
	ph.samples, ph.spans = nil, nil

	// Correctness, outside the timed window: the input replayed through
	// an in-process shadow.
	served := ph.alerts
	served.n += warmAlerts.n
	served.sum += warmAlerts.sum
	verify(res, st, ff, tm, ph, w.window, res.Counts["warmup_records"], served)

	if cfg.trace {
		if err := replayLayers(layers, w, st, ff, tm, ph.windows, filepath.Join(cfg.stateDir, "replay")); err != nil {
			return nil, err
		}
		for k, v := range setupLayers(setups) {
			layers[k] = v
		}
		if res.OffPath, err = offPathLayers(ctx, layers, w, tm, ff, filepath.Join(cfg.stateDir, "offpath"), tr); err != nil {
			return nil, err
		}
		res.Layers = layers
	}

	// Served-state memory: with every buffer of the benchmark's own
	// (input, samples, spans, shadow, replay stores) dropped, the live
	// heap is the served fleet state of every node in the process.
	ff, warm, readable = nil, nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.E2E["retained_heap_mb"] = float64(ms.HeapAlloc) / 1e6

	err = st.stop()
	st = nil
	if err != nil {
		return nil, fmt.Errorf("tearing down: %w", err)
	}
	return res, nil
}

// measure runs the measured phase: closed-loop writers over fixed-size
// windows for cfg.seconds, with the workload's open-loop reads beside
// them or after them. Where host steal disturbed so much of the phase
// that too few windows or reads are left to report from, the phase
// runs on, in whole windows or read periods, up to maxStretch times
// its length.
func measure(ctx context.Context, cfg config, st *stack, ff *fixedFleet, readable []string, rec *recorder, tr *tracer, probe *http.Client) (*phase, error) {
	w := cfg.workload
	ph := &phase{}
	var err error
	if ph.before, err = scrapeAll(probe, st); err != nil {
		return nil, err
	}
	writeClient := newClient(w.writers, rec)
	defer writeClient.CloseIdleConnections()
	readClient := newClient(1, nil)
	defer readClient.CloseIdleConnections()
	drv := &loadgen.Driver{BaseURL: st.entry, Client: writeClient}

	runtime.GC()
	ph.refLoopMs = refLoop()
	runtime.ReadMemStats(&ph.mem0)
	start := rec.now()
	until, hardUntil := start+cfg.seconds, start+maxStretch*cfg.seconds
	var stopReads atomic.Bool
	readerDone := make(chan struct{})
	if w.concurrent {
		go func() {
			defer close(readerDone)
			runReader(ctx, readClient, st.entry, readable, cfg.seed, rec, w.reads, start,
				func(int) bool { return stopReads.Load() }, false)
		}()
	} else {
		close(readerDone)
	}
	// enough reports whether the phase so far holds enough undisturbed
	// windows, and reads when they run beside the writers.
	enough := func() bool {
		clean := 0
		for i := range ph.winStart {
			if rec.steal.covers(ph.winEnd[i]) && !rec.steal.disturbed(ph.winStart[i], ph.winEnd[i]) {
				clean++
			}
		}
		if clean < minCleanWindows {
			return false
		}
		if w.concurrent {
			s, d := rec.cleanReads()
			return s >= minCleanReads && d >= minCleanReads
		}
		return true
	}
	lastEnd := rec.now()
	for win := 0; ; win++ {
		if now := rec.now(); now >= hardUntil || now >= until && enough() {
			break
		}
		q := ff.window(win, w.window, true)
		traced := cfg.trace && win%2 == 0
		rec.traced.Store(traced)
		rec.window.Store(int64(win))
		// This sample closes the previous window's steal bracket, so it
		// waits out stealMargin after that window's end.
		if gap := lastEnd + stealMargin - rec.now(); gap > 0 {
			time.Sleep(gap)
		}
		rec.steal.sample()
		t0 := time.Now()
		ws := rec.now()
		stats, err := drv.Run(ctx, loadgen.Phase{Name: fmt.Sprintf("window-%d", win), Clients: w.writers}, q)
		we := rec.now()
		dt := time.Since(t0).Seconds()
		lastEnd = we
		if err != nil {
			return nil, fmt.Errorf("measured window %d: %w", win, err)
		}
		ph.windows++
		ph.winRecords = append(ph.winRecords, stats.RecordsSent)
		ph.winSeconds = append(ph.winSeconds, dt)
		ph.winTraced = append(ph.winTraced, traced)
		ph.winStart = append(ph.winStart, ws)
		ph.winEnd = append(ph.winEnd, we)
		ph.records += stats.RecordsSent
		ph.retries += stats.Retries
		ph.alerts.add(stats.AlertKeys)
	}
	stopReads.Store(true)
	<-readerDone
	rec.window.Store(-1)
	rec.traced.Store(false)
	runtime.ReadMemStats(&ph.mem1)
	time.Sleep(stealMargin)
	rec.steal.sample()

	if !w.concurrent {
		// The read-only phase starts from a collected heap, not from the
		// write phase's garbage.
		runtime.GC()
		runReader(ctx, readClient, st.entry, readable, cfg.seed, rec, w.reads, rec.now(), func(p int) bool {
			if p < postPeriods {
				return false
			}
			s, d := rec.cleanReads()
			return p >= maxStretch*postPeriods || s >= minCleanReads && d >= minCleanReads
		}, cfg.trace)
		time.Sleep(stealMargin)
		rec.steal.sample()
	}
	ph.steal = rec.steal
	rec.traced.Store(false)
	if ph.after, err = scrapeAll(probe, st); err != nil {
		return nil, err
	}
	ph.samples = rec.take()
	for _, s := range ph.samples {
		if s.kind != kindIngest && !s.ok() {
			ph.badReads = append(ph.badReads, fmt.Sprintf("%s read due at %v: status %d", kindName[s.kind], s.due, s.status))
		}
	}
	if tr.on {
		ph.spans = tr.take()
	}
	var sum struct {
		Drives int `json:"drives"`
	}
	if err := getJSON(probe, st.entry+"/v1/fleet/summary", &sum); err != nil {
		return nil, err
	}
	ph.lastSummary = sum.Drives
	return ph, nil
}

// scrapeAll scrapes /metrics of every node and the router.
func scrapeAll(probe *http.Client, st *stack) (map[string]metricsDoc, error) {
	out := map[string]metricsDoc{}
	for _, n := range st.allNodes() {
		d, err := scrape(probe, n.url)
		if err != nil {
			return nil, err
		}
		out[n.id] = d
	}
	if st.router != nil {
		d, err := scrape(probe, st.entry)
		if err != nil {
			return nil, err
		}
		out["router"] = d
	}
	return out, nil
}
