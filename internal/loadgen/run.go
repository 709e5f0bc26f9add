package loadgen

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/server"
)

// run is one scenario's execution state, owned by the scenario runner:
// the report, the shadow every phase is applied to, the driver, the
// alerts the phases acknowledged, and the clean-up of every server,
// state manager and scratch directory the steps opened. Its methods
// are the steps the scenarios share; each needs what the step before it
// produced, so a scenario calls them directly.
type run struct {
	ctx    context.Context
	dep    Deployment
	cfg    ScenarioConfig
	rep    *ScenarioReport
	shadow *Shadow
	drv    *Driver
	alerts []string

	// clients is the stream count of the scenario's splits; interval
	// paces every phase (the steady scenario's -rate).
	clients  int
	interval time.Duration

	// models, norms and fcfg are what the scenario's stores serve.
	models []monitor.GroupModel
	norms  monitor.ClassNorms
	fcfg   fleet.Config

	// root is the scenario's state directory, chosen on first use.
	root    string
	cleanup []func()
}

// checkFailed is a failed check that ends a scenario body.
type checkFailed struct {
	check string
	err   error
}

func (c *checkFailed) Error() string { return c.check + ": " + c.err.Error() }

// fail ends a scenario body on a failed check: the runner records the
// check and finishes the report.
func fail(check string, err error) error { return &checkFailed{check, err} }

// scenario runs body as the scenario name over the deployment's models.
// A body returns nil once it has made its checks, fail(check, err) to
// stop at a failed one, and any other error for a set-up failure, which
// aborts the scenario. Everything the steps started is stopped, closed
// and removed before scenario returns, whichever way the body ended.
func scenario(ctx context.Context, name string, dep Deployment, cfg ScenarioConfig, body func(*run) error) (*ScenarioReport, error) {
	r := &run{
		ctx:     ctx,
		dep:     dep,
		cfg:     cfg,
		rep:     &ScenarioReport{Name: name},
		drv:     &Driver{Log: dep.Log},
		clients: cfg.clients(),
	}
	defer func() {
		for i := len(r.cleanup) - 1; i >= 0; i-- {
			r.cleanup[i]()
		}
	}()
	err := r.deploy(dep.Models, monitor.ClassNorms{HDD: dep.Norm}, 0)
	if err == nil {
		err = body(r)
	}
	var cf *checkFailed
	if errors.As(err, &cf) {
		r.rep.addCheck(cf.check, cf.err)
	} else if err != nil {
		return r.rep, err
	}
	r.rep.finish()
	return r.rep, nil
}

// atExit registers a clean-up step; they run in reverse order.
func (r *run) atExit(f func()) { r.cleanup = append(r.cleanup, f) }

// deploy sets the models, normalizers and per-drive telemetry retention
// the scenario's stores serve, and starts a fresh shadow over them.
func (r *run) deploy(models []monitor.GroupModel, norms monitor.ClassNorms, historyHours int) error {
	shadow, err := NewShadowMulti(models, norms, fleet.Config{Monitor: r.dep.Monitor, HistoryHours: historyHours})
	if err != nil {
		return err
	}
	r.models, r.norms, r.shadow = models, norms, shadow
	r.fcfg = r.dep.fleetConfig()
	r.fcfg.HistoryHours = historyHours
	return nil
}

// store builds an empty store over the deployed models; shards > 0
// overrides the deployment's shard count.
func (r *run) store(shards int) (*fleet.Store, error) {
	fcfg := r.fcfg
	if shards > 0 {
		fcfg.Shards = shards
	}
	return fleet.NewMulti(r.models, r.norms, fcfg)
}

// dir returns sub below the scenario's state directory: <StateDir>/<name>,
// or a scratch directory removed when the scenario returns.
func (r *run) dir(sub string) (string, error) {
	if r.root == "" {
		if r.cfg.StateDir != "" {
			r.root = filepath.Join(r.cfg.StateDir, r.rep.Name)
		} else {
			d, err := os.MkdirTemp("", "diskload-"+r.rep.Name+"-*")
			if err != nil {
				return "", err
			}
			r.atExit(func() { os.RemoveAll(d) })
			r.root = d
		}
	}
	return filepath.Join(r.root, sub), nil
}

// persisted opens the state directory sub, builds a store over the
// deployed models and commits its seed snapshot, so the models are
// durable from the first batch. The manager is closed when the scenario
// returns; until then a kill abandons it the way a crash would.
func (r *run) persisted(sub string) (*fleet.Store, *persist.Manager, error) {
	dir, err := r.dir(sub)
	if err != nil {
		return nil, nil, err
	}
	mgr, err := persist.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	r.atExit(func() { mgr.Close() })
	store, err := r.store(0)
	if err != nil {
		return nil, nil, err
	}
	if _, err := mgr.Snapshot(store); err != nil {
		return nil, nil, fmt.Errorf("loadgen: seed snapshot: %w", err)
	}
	return store, mgr, nil
}

// serve starts a harness over store, or over a fresh store of the
// deployed models when store is nil, and stops it when the scenario
// returns.
func (r *run) serve(store *fleet.Store, scfg server.Config) (*Harness, error) {
	if store == nil {
		var err error
		if store, err = r.store(0); err != nil {
			return nil, err
		}
	}
	h, err := StartHarnessStore(store, scfg)
	if err != nil {
		return nil, err
	}
	r.atExit(func() { shutdown(h.Stop) })
	return h, nil
}

// shutdown stops a harness, allowing its in-flight requests ten seconds
// to drain.
func shutdown(stop func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return stop(ctx)
}

// split cuts wl into the run's client streams and records it as the
// scenario's workload.
func (r *run) split(wl *Workload) [][]*Batch {
	queues := wl.Split(r.clients)
	r.rep.WorkloadFingerprint = Fingerprint(queues)
	r.rep.Drives = len(wl.Drives)
	return queues
}

// send replays chunk through drv, one client per stream, and records
// the phase in the report.
func (r *run) send(drv *Driver, name string, chunk [][]*Batch) (*PhaseStats, error) {
	stats, err := drv.Run(r.ctx, Phase{Name: name, Interval: r.interval}, chunk)
	if stats != nil {
		r.rep.Phases = append(r.rep.Phases, stats)
	}
	return stats, err
}

// phase sends chunk through the scenario's driver, counts its records
// and acknowledged alerts, and applies the same batches to the shadow.
func (r *run) phase(name string, chunk [][]*Batch) (*PhaseStats, error) {
	stats, err := r.send(r.drv, name, chunk)
	if stats != nil {
		r.rep.Records += stats.RecordsSent
		r.alerts = append(r.alerts, stats.AlertKeys...)
	}
	if err != nil {
		return stats, fail("phase", err)
	}
	if err := r.shadow.ApplyChunk(chunk); err != nil {
		return stats, fail("shadow", err)
	}
	return stats, nil
}

// kill crash-stops h: the HTTP layer drains like SIGTERM, but mgr is
// abandoned without a final snapshot or a close, leaving its directory
// as a crash would. The directory is restored at twice the shard count
// and served again, and the driver follows. The restored store must
// match the shadow record for record and serve the killed store's model
// version, which is checked under versionCheck.
func (r *run) kill(h *Harness, mgr *persist.Manager, versionCheck string) (*Harness, *persist.Recovery, error) {
	if err := shutdown(h.Stop); err != nil {
		return nil, nil, fail("kill", err)
	}
	fcfg := r.fcfg
	fcfg.Shards = h.Store.Shards() * 2
	store, mgr2, rec, took, err := RestoreStore(mgr.Dir(), fcfg)
	if err != nil {
		return nil, nil, fail("restore", err)
	}
	r.atExit(func() { mgr2.Close() })
	r.rep.Recovery = &RecoveryReport{
		RestoreMs:      float64(took) / float64(time.Millisecond),
		SnapshotDrives: rec.SnapshotDrives,
		WALBatches:     rec.WALBatches,
		WALRows:        rec.WALRows,
		ShardsBefore:   h.Store.Shards(),
		ShardsAfter:    store.Shards(),
	}
	r.rep.addCheck("restored-state-matches-shadow",
		CompareStates("shadow@kill", "restored", r.shadow.State(), CanonicalState(store)))
	var verErr error
	if got, want := store.ModelVersion(), h.Store.ModelVersion(); got != want {
		verErr = fmt.Errorf("restored store serves model version %d, want %d", got, want)
	}
	r.rep.addCheck(versionCheck, verErr)
	h2, err := r.serve(store, server.Config{MaxInFlight: 256, Persist: mgr2})
	if err != nil {
		return nil, nil, fail("restart", err)
	}
	r.drv.SetBaseURL(h2.URL)
	return h2, rec, nil
}

// match makes the closing shadow checks: the final state st, checked
// under check, and the acknowledged alert stream must equal the
// shadow's. st's fingerprint becomes the scenario's summary.
func (r *run) match(check string, st *fleet.State) {
	r.rep.addCheck(check, CompareStates("shadow", "served", r.shadow.State(), st))
	r.rep.addCheck("alerts-match-shadow",
		CompareAlerts("shadow", "http", r.shadow.AlertKeys(), r.alerts, false))
	r.rep.Alerts = len(r.alerts)
	r.rep.SummaryFingerprint = StateFingerprint(st)
}

// verify closes a scenario whose final state is h's: match, then the
// metrics-invariant check over the ingested records h itself served.
func (r *run) verify(check string, h *Harness, ingested int) {
	r.match(check, CanonicalState(h.Store))
	r.rep.addCheck("metrics-invariant", r.metrics(h.URL, ingested))
}

// metrics checks a server's /metrics against the shadow: the ingest
// ledger balances over the ingested records the server took, the
// server tracks the shadow's drives, and, when it took every record the
// shadow saw, it quarantined the same rows.
func (r *run) metrics(url string, ingested int) error {
	m, err := metricsLedger(url, int64(ingested))
	if err != nil {
		return err
	}
	if want := r.shadow.Store().Tracked(); m.Fleet.Drives != want {
		return fmt.Errorf("/metrics fleet.drives = %d, shadow tracks %d", m.Fleet.Drives, want)
	}
	if want := r.shadow.Quarantined(); ingested == r.shadow.Ingested() && m.Ingest.Quarantined != int64(want) {
		return fmt.Errorf("/metrics rows_quarantined = %d, shadow quarantined %d", m.Ingest.Quarantined, want)
	}
	return nil
}
