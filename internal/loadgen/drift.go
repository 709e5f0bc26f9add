package loadgen

import (
	"context"
	"fmt"

	"disksig/internal/core"
	"disksig/internal/learn"
	"disksig/internal/persist"
	"disksig/internal/server"
	"disksig/internal/smart"
)

// driftHistoryHours is the per-drive telemetry retention of the drift
// scenario's stores: long enough to cover a full failed-drive profile,
// so the harvest labels see the whole degradation ramp.
const driftHistoryHours = 480

// RunDrift is the online-learning scenario: a persisted server trained
// on the default failure mix ingests a baseline cohort, then a drifted
// cohort (synth.BackupWorkloadConfig — bad-sector failures dominate)
// under the now-stale models. A retraining cycle harvests the retained
// telemetry, shadow-evaluates the candidate against the serving models
// on held-out drives, and hot-swaps the promoted version — while a
// concurrent filler client keeps ingesting, proving the swap never
// takes ingest down. The scenario passes only if:
//
//   - the candidate wins the shadow evaluation and is promoted,
//   - every ingest ack (filler included) is a 200 carrying exactly one
//     model version, pre-swap batches v1 and post-swap batches v2,
//   - the persisted artifact's version and training fingerprint match
//     the cycle's, and harvesting the final state twice yields the
//     same fingerprint (training is deterministic in the telemetry),
//   - the served store matches a shadow — which adopts the promoted
//     artifact at the same batch boundary — record for record, and
//   - a kill + warm restart at a different shard count comes back on
//     the promoted version with state equal to the shadow.
//
// The filler replays strictly stale records (an earlier slice of the
// drift cohort), which the store quarantines identically under either
// model version — so its effect on the quality ledger is deterministic
// even though the swap lands at an arbitrary point inside it, and the
// shadow can apply it at a fixed position.
func RunDrift(ctx context.Context, dep Deployment, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario(ctx, "drift", dep, cfg, func(r *run) error {
		wlBase, err := BuildWorkload(cfg.Workload)
		if err != nil {
			return err
		}
		dcfg := cfg.Workload
		dcfg.Drift = true
		dcfg.SerialPrefix = "dr-"
		dcfg.FleetSeedOffset += 4000
		wlDrift, err := BuildWorkload(dcfg)
		if err != nil {
			return err
		}
		if err := r.deploy(dep.Set, driftHistoryHours); err != nil {
			return err
		}
		store, mgr, err := r.persisted("")
		if err != nil {
			return err
		}
		retr := &learn.Retrainer{
			Store: store,
			Cfg: learn.Config{
				Core:   core.Config{Seed: cfg.Workload.Seed, Workers: dep.Workers},
				Margin: cfg.ShadowMargin,
			},
			// diskserve's promotion protocol: artifact first, then swap +
			// snapshot under the snapshot gate.
			Promote: func(art *persist.ModelArtifact) error { return mgr.Promote(store, art) },
		}
		h, err := r.serve(store, server.Config{MaxInFlight: 256, Persist: mgr, Retrain: retr})
		if err != nil {
			return err
		}
		r.drv.SetBaseURL(h.URL)

		baseQ := wlBase.Split(r.clients)
		driftQ := wlDrift.Split(r.clients)
		driftChunks := ChunkQueues(driftQ, 2)
		r.rep.WorkloadFingerprint = Fingerprint(append(append([][]*Batch{}, baseQ...), driftQ...))
		r.rep.Drives = len(wlBase.Drives) + len(wlDrift.Drives)

		// singleVersion checks one phase's swap-barrier evidence: every
		// acknowledged batch carried the one expected model version.
		singleVersion := func(stats *PhaseStats, want int) error {
			key := fmt.Sprintf("v%d", want)
			for v, n := range stats.ModelVersions {
				if v != key {
					return fmt.Errorf("phase %s: %d batches scored by %s, want only %s", stats.Name, n, v, key)
				}
			}
			if stats.ModelVersions[key] != stats.Batches {
				return fmt.Errorf("phase %s: %d of %d batches tagged %s", stats.Name, stats.ModelVersions[key], stats.Batches, key)
			}
			return nil
		}

		baseStats, err := r.phase("baseline", baseQ)
		if err != nil {
			return err
		}
		staleStats, err := r.phase("drift-stale", driftChunks[0])
		if err != nil {
			return err
		}
		preErr := singleVersion(baseStats, 1)
		if preErr == nil {
			preErr = singleVersion(staleStats, 1)
		}
		r.rep.addCheck("pre-swap-batches-all-v1", preErr)

		// The filler replays records strictly older than each drift drive's
		// kept frontier (its LastHour after the drift-stale chunk, read off
		// the shadow), so every row quarantines as stale regardless of which
		// model version scores the batch — stale detection never consults the
		// models. It runs concurrently with the retraining cycle: the swap
		// lands somewhere inside it, and because no filler row is kept, the
		// swap point cannot perturb state, which lets the shadow apply the
		// same batches at a fixed position and still compare equal.
		frontier := map[string]int{}
		for _, e := range r.shadow.State().Drives {
			if e.State.Tracked {
				frontier[e.Serial] = e.State.LastHour
			}
		}
		var fillerDrives []Drive
		for _, d := range wlDrift.Drives {
			last, ok := frontier[d.Serial]
			if !ok {
				continue
			}
			var recs []smart.Record
			for _, rec := range d.Records {
				if rec.Hour < last {
					recs = append(recs, rec)
				}
			}
			if len(recs) > 0 {
				fillerDrives = append(fillerDrives, Drive{Serial: d.Serial, Records: recs})
			}
		}
		if len(fillerDrives) == 0 {
			return fail("filler-phase", fmt.Errorf("no stale filler records below any drive frontier"))
		}
		fillerQ := WorkloadFromDrives(fillerDrives, cfg.Workload.withDefaults().BatchSize).Split(r.clients)
		type fillerOut struct {
			stats *PhaseStats
			err   error
		}
		fillerc := make(chan fillerOut, 1)
		go func() {
			stats, err := r.phase("filler-during-retrain", fillerQ)
			fillerc <- fillerOut{stats, err}
		}()
		res, retrainErr := AdminRetrain(h.URL)
		fo := <-fillerc
		if fo.err != nil {
			return fo.err
		}
		if retrainErr != nil {
			return fail("retrain", retrainErr)
		}

		// The filler must have stayed fully available (every batch a 200)
		// and every batch scored by exactly one version; the cycle must have
		// promoted v2 on the strength of the shadow evaluation.
		var availErr error
		non200 := 0
		for class, n := range fo.stats.Status {
			if class != "2xx" {
				non200 += n
			}
		}
		if non200 > 0 {
			availErr = fmt.Errorf("filler saw %d non-200 responses during the swap: %v", non200, fo.stats.Status)
		} else if fo.stats.RecordsQuarantined != fo.stats.RecordsSent {
			availErr = fmt.Errorf("filler expected all %d stale records quarantined, got %d", fo.stats.RecordsSent, fo.stats.RecordsQuarantined)
		}
		r.rep.addCheck("ingest-available-during-swap", availErr)
		var fillerVerErr error
		for v, n := range fo.stats.ModelVersions {
			if v != "v1" && v != "v2" {
				fillerVerErr = fmt.Errorf("filler batch scored by unexpected version %s (%d batches)", v, n)
			}
		}
		r.rep.addCheck("filler-batches-single-version-each", fillerVerErr)
		r.rep.Drift = &DriftReport{
			ServingVersion:  res.ServingVersion,
			PromotedVersion: res.CandidateVersion,
			Fingerprint:     res.Fingerprint,
			FailedDrives:    res.FailedDrives,
			GoodDrives:      res.GoodDrives,
			EvalDrives:      res.EvalDrives,
			ServingF1:       res.Serving.F1,
			ServingRecall:   res.Serving.Recall,
			CandidateF1:     res.Candidate.F1,
			CandidateRecall: res.Candidate.Recall,
			Agreement:       res.Agreement,
			TrainMs:         res.TrainMillis,
			PromoteMs:       res.PromoteMillis,
			FillerBatches:   fo.stats.Batches,
			FillerNon200:    non200,
		}
		switch {
		case !res.Promoted:
			return fail("candidate-promoted", fmt.Errorf("candidate not promoted: %s (serving %v vs candidate %v)", res.Reason, res.Serving, res.Candidate))
		case res.CandidateVersion != 2:
			return fail("candidate-promoted", fmt.Errorf("promoted version %d, want 2", res.CandidateVersion))
		}
		r.rep.addCheck("candidate-promoted", nil)

		// The shadow adopts the persisted artifact at the same batch
		// boundary the served store finished its filler at; from here both
		// score on v2. The artifact's provenance must match the cycle's.
		art, err := persist.LoadModels(mgr.Dir())
		switch {
		case err != nil:
			return fail("artifact-matches-cycle", err)
		case art.Version != res.CandidateVersion:
			return fail("artifact-matches-cycle", fmt.Errorf("artifact version %d, want %d", art.Version, res.CandidateVersion))
		case art.Fingerprint != res.Fingerprint:
			return fail("artifact-matches-cycle", fmt.Errorf("artifact fingerprint %s, cycle reported %s", art.Fingerprint, res.Fingerprint))
		}
		r.rep.addCheck("artifact-matches-cycle", nil)
		if err := r.shadow.Store().SwapModels(art.Set()); err != nil {
			return fail("shadow-swap", err)
		}
		if v, err := ActiveModelVersion(h.URL); err != nil || v != art.Version {
			return fail("models-status", fmt.Errorf("active version %d (err %v), want %d", v, err, art.Version))
		}

		postStats, err := r.phase("drift-promoted", driftChunks[1])
		if err != nil {
			return err
		}
		r.rep.addCheck("post-swap-batches-all-v2", singleVersion(postStats, 2))
		r.verify("state-matches-shadow", h, r.shadow.Ingested())

		// Fingerprint determinism: two harvests of the same retained
		// telemetry must agree exactly.
		finalState := CanonicalState(h.Store)
		h1, err1 := learn.Harvest(finalState)
		h2, err2 := learn.Harvest(finalState)
		var fpErr error
		switch {
		case err1 != nil:
			fpErr = err1
		case err2 != nil:
			fpErr = err2
		case h1.Fingerprint != h2.Fingerprint:
			fpErr = fmt.Errorf("repeated harvest fingerprints differ: %s vs %s", h1.Fingerprint, h2.Fingerprint)
		}
		r.rep.addCheck("harvest-fingerprint-deterministic", fpErr)

		// A kill + warm restart must come back on the promoted version with
		// state equal to the shadow's.
		_, _, err = r.kill(h, mgr, "restored-on-promoted-version")
		return err
	})
}
