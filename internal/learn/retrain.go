package learn

import (
	"context"
	"fmt"
	"time"

	"disksig/internal/core"
	"disksig/internal/dataset"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/smart"
)

// Config parameterizes one retraining cycle.
type Config struct {
	// Core is the characterization configuration of the retrain run —
	// normally the same seed/worker settings the serving models were
	// trained with, so drift in the results means drift in the fleet,
	// not in the pipeline.
	Core core.Config
	// Margin is the shadow-evaluation margin: the candidate is promoted
	// only when its F1 beats the serving model's by at least this much.
	// Zero promotes on ties — set a positive margin to make promotions
	// conservative.
	Margin float64
	// MinFailed/MinGood are the smallest training cohorts worth
	// retraining on; <= 0 means 4 failed / 8 good.
	MinFailed int
	MinGood   int
}

func (c Config) withDefaults() Config {
	if c.MinFailed <= 0 {
		c.MinFailed = 4
	}
	if c.MinGood <= 0 {
		c.MinGood = 8
	}
	return c
}

// Result reports one retraining cycle: what was harvested, how both
// model sets scored, and whether the candidate was promoted.
type Result struct {
	// Fingerprint is the harvest's deterministic training fingerprint.
	Fingerprint string `json:"fingerprint"`
	// TrainedMaxHour is the fleet telemetry hour the snapshot was at.
	TrainedMaxHour int `json:"trained_max_hour"`
	// ServingVersion is the model version the cycle evaluated against;
	// CandidateVersion is what a promotion swapped (or would swap) to.
	ServingVersion   int `json:"serving_version"`
	CandidateVersion int `json:"candidate_version"`
	// Cohort sizes.
	FailedDrives  int `json:"failed_drives"`
	GoodDrives    int `json:"good_drives"`
	EvalDrives    int `json:"eval_drives"`
	SkippedDrives int `json:"skipped_drives"`
	// Serving and Candidate are the shadow-evaluation scores.
	Serving   Score `json:"serving"`
	Candidate Score `json:"candidate"`
	// Agreement is the fraction of held-out drives where both model
	// sets made the same flag decision.
	Agreement float64 `json:"agreement"`
	// Promoted reports whether the candidate was swapped in; Reason
	// explains a skipped promotion (or records the winning margin).
	Promoted bool   `json:"promoted"`
	Reason   string `json:"reason"`
	// Notes carries training-quality caveats (e.g. clamped windows).
	Notes []string `json:"notes,omitempty"`
	// TrainMillis and PromoteMillis time the characterization run and
	// the promotion (artifact save + swap + snapshot).
	TrainMillis   int64 `json:"train_millis"`
	PromoteMillis int64 `json:"promote_millis"`
}

// Retrainer runs retraining cycles against a live store. The cycle
// reads a state snapshot and trains entirely off the ingest hot path;
// only a promotion (the Promote hook) briefly excludes ingestion.
type Retrainer struct {
	Store *fleet.Store
	Cfg   Config
	// Promote commits a winning candidate — the server wires it to
	// persist the artifact and hot-swap the store under the snapshot
	// gate (persist.Manager.Promote).
	// Required: a Retrainer without a Promote hook only evaluates.
	Promote func(*persist.ModelArtifact) error
}

// RetrainOnce runs one cycle: snapshot, harvest, characterize,
// shadow-evaluate, and promote when the candidate wins by the margin.
// An undersized or unlabelable fleet is a skipped cycle (Promoted
// false, Reason set), not an error; errors mean the cycle itself could
// not run.
func (r *Retrainer) RetrainOnce(ctx context.Context) (*Result, error) {
	cfg := r.Cfg.withDefaults()
	st := r.Store.ExportState()
	h, err := Harvest(st)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Fingerprint:      h.Fingerprint,
		TrainedMaxHour:   st.MaxHour,
		ServingVersion:   st.ModelVersion,
		CandidateVersion: st.ModelVersion + 1,
		FailedDrives:     len(h.Failed),
		GoodDrives:       len(h.Good),
		EvalDrives:       len(h.Eval),
		SkippedDrives:    h.Skipped,
	}
	if len(h.Failed) < cfg.MinFailed || len(h.Good) < cfg.MinGood {
		res.Reason = fmt.Sprintf("training cohort too small: %d failed / %d good (need %d/%d)",
			len(h.Failed), len(h.Good), cfg.MinFailed, cfg.MinGood)
		return res, nil
	}

	trainStart := time.Now()
	ds := dataset.New(h.Failed, h.Good)
	ch, err := core.CharacterizeCtx(ctx, ds, cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("learn: characterizing harvested fleet: %w", err)
	}
	cand, err := monitor.SetOf(ch)
	if err != nil {
		return nil, fmt.Errorf("learn: extracting candidate models: %w", err)
	}
	cand.Version = res.CandidateVersion
	res.TrainMillis = time.Since(trainStart).Milliseconds()
	for _, gm := range cand.Models {
		if gm.Note != "" {
			res.Notes = append(res.Notes, fmt.Sprintf("group %d: %s", gm.Group, gm.Note))
		}
	}

	// The candidate replaces the HDD models only, so it is evaluated as
	// the set a promotion would serve.
	servingSet := st.ModelSet()
	serving, servFlags, err := Evaluate(servingSet, st.MonitorCfg, h.Eval, cfg.Core.Workers)
	if err != nil {
		return nil, err
	}
	candidate, candFlags, err := Evaluate(servingSet.With(cand), st.MonitorCfg, h.Eval, cfg.Core.Workers)
	if err != nil {
		return nil, err
	}
	res.Serving, res.Candidate = serving, candidate
	agree := 0
	for i := range servFlags {
		if servFlags[i] == candFlags[i] {
			agree++
		}
	}
	if len(servFlags) > 0 {
		res.Agreement = float64(agree) / float64(len(servFlags))
	}

	failingEval := candidate.TruePositives + candidate.FalseNegatives
	switch {
	case failingEval == 0:
		res.Reason = "no failing drives in the held-out cohort: recall unmeasurable"
		return res, nil
	case candidate.F1 < serving.F1+cfg.Margin:
		res.Reason = fmt.Sprintf("candidate F1 %.3f does not beat serving %.3f by margin %.3f",
			candidate.F1, serving.F1, cfg.Margin)
		return res, nil
	}

	if r.Promote == nil {
		res.Reason = fmt.Sprintf("candidate wins (F1 %.3f vs %.3f) but no promote hook is wired",
			candidate.F1, serving.F1)
		return res, nil
	}
	art := &persist.ModelArtifact{
		Version:        cand.Version,
		Fingerprint:    h.Fingerprint,
		TrainedMaxHour: st.MaxHour,
		FailedDrives:   len(h.Failed),
		GoodDrives:     len(h.Good),
		Models:         cand.Models,
		Norm:           cand.Norms[smart.HDD],
		Notes:          res.Notes,
	}
	promoteStart := time.Now()
	if err := r.Promote(art); err != nil {
		return nil, fmt.Errorf("learn: promoting version %d: %w", art.Version, err)
	}
	res.PromoteMillis = time.Since(promoteStart).Milliseconds()
	res.Promoted = true
	res.Reason = fmt.Sprintf("candidate F1 %.3f beat serving %.3f by >= %.3f", candidate.F1, serving.F1, cfg.Margin)
	return res, nil
}
