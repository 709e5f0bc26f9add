package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"disksig/internal/learn"
	"disksig/internal/wire"
)

// retrainLoop runs periodic retraining cycles until stop closes. A
// failed cycle is logged and skipped, never fatal: the serving models
// stay in place and the next tick tries again.
func (s *Server) retrainLoop(stop chan struct{}) {
	t := time.NewTicker(s.cfg.RetrainEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			res, err := s.runRetrain(context.Background())
			if err != nil {
				if s.cfg.Log != nil {
					s.cfg.Log.Printf("background retrain failed: %v", err)
				}
				continue
			}
			if s.cfg.Log != nil {
				s.cfg.Log.Printf("retrain: promoted=%v serving=v%d candidate=v%d fp=%s reason=%q",
					res.Promoted, res.ServingVersion, res.CandidateVersion, res.Fingerprint, res.Reason)
			}
		}
	}
}

// runRetrain executes one retraining cycle and records its outcome for
// the status endpoint and metrics. The admin handler and the background
// ticker share it, so both surface identically.
func (s *Server) runRetrain(ctx context.Context) (*learn.Result, error) {
	res, err := s.cfg.Retrain.RetrainOnce(ctx)
	if err != nil {
		s.m.retrainFailures.Add(1)
		return nil, err
	}
	s.m.retrains.Add(1)
	if res.Promoted {
		s.m.promotions.Add(1)
	}
	s.retrainMu.Lock()
	s.lastRetrain = res
	s.retrainMu.Unlock()
	return res, nil
}

// handleRetrain runs a retraining cycle on demand (POST
// /v1/admin/retrain, registered only when a retrainer is configured)
// and returns the full cycle result. The cycle trains off the ingest
// hot path; only a promotion briefly pauses ingestion for the swap.
func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	res, err := s.runRetrain(r.Context())
	if err != nil {
		if s.cfg.Log != nil {
			s.cfg.Log.Printf("admin retrain failed: %v", err)
		}
		wire.WriteJSON(w, http.StatusInternalServerError, map[string]any{
			"error": fmt.Sprintf("retrain failed: %v", err),
		})
		return
	}
	wire.WriteJSON(w, http.StatusOK, res)
}

// handleModelStatus reports the serving model set (GET
// /v1/models/status): active version, per-group model metadata
// including device class and training-quality notes, and the last
// retraining cycle's outcome when one has run. The version and groups
// come from one read of the set, so a concurrent swap cannot pair one
// version's groups with another's number.
func (s *Server) handleModelStatus(w http.ResponseWriter, r *http.Request) {
	set := s.store.ModelSet()
	groups := make([]map[string]any, len(set.Models))
	for i, gm := range set.Models {
		g := map[string]any{
			"class":        gm.Class.String(),
			"group":        gm.Group,
			"type":         gm.Type.String(),
			"window_hours": gm.WindowD,
		}
		if gm.Note != "" {
			g["note"] = gm.Note
		}
		groups[i] = g
	}
	doc := map[string]any{
		"active_version":  set.Version,
		"groups":          groups,
		"retrain_enabled": s.cfg.Retrain != nil,
	}
	s.retrainMu.Lock()
	last := s.lastRetrain
	s.retrainMu.Unlock()
	if last != nil {
		doc["last_retrain"] = last
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}
