package loadgen

import (
	"context"
	"fmt"

	"disksig/internal/server"
)

// RunChaos is the kill/warm-restart schedule: a persisted server
// ingests the first part of the stream (with a mid-stream snapshot so
// recovery mixes snapshot and WAL replay), is killed mid-stream — the
// HTTP layer drains like SIGTERM, but the state directory is abandoned
// without a final snapshot or a clean close, exactly what a crash
// leaves behind — then warm-restarts at a different shard count. The
// scenario passes only if the restored store matches the shadow
// monitor record-for-record at the kill point, the replay then
// finishes with the final state, alert stream and metrics ledger all
// matching the shadow.
func RunChaos(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "chaos", dep, cfg, func(r *run) error {
		wl, err := BuildWorkload(cfg.Workload)
		if err != nil {
			return err
		}
		_, err = r.chaos("", wl)
		return err
	})
}

// chaos runs the kill/warm-restart schedule of RunChaos over wl with the
// deployed models, naming its phases with prefix, and returns the
// restarted harness.
func (r *run) chaos(prefix string, wl *Workload) (*Harness, error) {
	store, mgr, err := r.persisted("")
	if err != nil {
		return nil, err
	}
	h, err := r.serve(store, server.Config{MaxInFlight: 256, Persist: mgr})
	if err != nil {
		return nil, err
	}
	r.drv.SetBaseURL(h.URL)
	// Three chunks: ingested-then-snapshotted, ingested-into-WAL-only,
	// and post-restore. The kill lands between chunks 1 and 2, so
	// recovery must replay exactly chunk 1's batches from the WAL.
	chunks := ChunkQueues(r.split(wl), 3)
	if _, err := r.phase(prefix+"pre-snapshot", chunks[0]); err != nil {
		return nil, err
	}
	if err := AdminSnapshot(h.URL); err != nil {
		return nil, fail("mid-stream-snapshot", err)
	}
	if _, err := r.phase(prefix+"pre-kill", chunks[1]); err != nil {
		return nil, err
	}
	h2, rec, err := r.kill(h, mgr, "model-version-preserved")
	if err != nil {
		return nil, err
	}
	// Recovery must have been clean: exactly the WAL-only chunk
	// replayed, no torn tail, no stale WAL.
	var recErr error
	wantBatches := 0
	for _, q := range chunks[1] {
		wantBatches += len(q)
	}
	if rec.TornTail || rec.StaleWAL {
		recErr = fmt.Errorf("clean kill recovered with TornTail=%v StaleWAL=%v", rec.TornTail, rec.StaleWAL)
	} else if rec.WALBatches != wantBatches {
		recErr = fmt.Errorf("recovery replayed %d WAL batches, want %d (the post-snapshot chunk)", rec.WALBatches, wantBatches)
	}
	r.rep.addCheck("recovery-accounting", recErr)
	if _, err := r.phase(prefix+"post-restore", chunks[2]); err != nil {
		return nil, err
	}
	// Metrics counters restart with the process: the second server has
	// seen exactly the post-restore chunk.
	r.verify("final-state-matches-shadow", h2, CountRecords(chunks[2]))
	return h2, nil
}
