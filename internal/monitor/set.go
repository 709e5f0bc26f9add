package monitor

import (
	"fmt"

	"disksig/internal/core"
	"disksig/internal/smart"
)

// ModelSet is one versioned set of trained scoring models together with
// the Eq. (1) normalizer of each device class they score: what a
// training run produces, and what a store serves, swaps, evaluates and
// persists. A single-class fleet's set has one class's models and
// normalizer, and nil for the other classes.
type ModelSet struct {
	// Version numbers the set; every promoted swap must raise it. A
	// store serves a set whose version is below 1 as version 1, the
	// version of a freshly trained set.
	Version int
	// Models are the per-group scoring models, each stamped with its
	// device class.
	Models []GroupModel
	// Norms holds the fitted normalizer of each served class, indexed
	// by class; a class with no models keeps a nil entry.
	Norms [smart.NumClasses]*smart.Normalizer
}

// With returns the set that installing next over s serves: each class
// next has models for takes next's models and normalizer, and every
// other class keeps s's, ordered after next's models as they were in s.
// The result carries next's version. A retraining cycle retrains one
// class's population, and its promotion must not drop the other
// classes' models.
func (s ModelSet) With(next ModelSet) ModelSet {
	var incoming [smart.NumClasses]bool
	for _, m := range next.Models {
		if m.Class.Valid() {
			incoming[m.Class] = true
		}
	}
	out := ModelSet{Version: next.Version, Models: append([]GroupModel(nil), next.Models...), Norms: s.Norms}
	for _, m := range s.Models {
		if !m.Class.Valid() || !incoming[m.Class] {
			out.Models = append(out.Models, m)
		}
	}
	for c := range out.Norms {
		if incoming[c] {
			out.Norms[c] = next.Norms[c]
		}
	}
	return out
}

// SetOf extracts the model set of a pipeline run that included the
// prediction stage: byClass[c] is the characterization of device class
// c's population, nil for a class the fleet does not have. A
// single-class run is SetOf(ch), which serves HDDs; a class-partitioned
// run is SetOf(mc.ByClass[:]...). Models are ordered by class, then by
// group, so sets extracted from the same run are laid out identically.
// The set's Version is left 0.
func SetOf(byClass ...*core.Characterization) (ModelSet, error) {
	var set ModelSet
	if len(byClass) > int(smart.NumClasses) {
		return set, fmt.Errorf("monitor: %d characterizations for %d device classes", len(byClass), smart.NumClasses)
	}
	for c, ch := range byClass {
		if ch == nil {
			continue
		}
		for _, gr := range ch.Results {
			if gr.Prediction == nil {
				return ModelSet{}, fmt.Errorf("monitor: %v group %d has no trained predictor (pipeline ran with SkipPrediction)", smart.DeviceClass(c), gr.Group.Number)
			}
			gm := GroupModel{
				Class:     smart.DeviceClass(c),
				Group:     gr.Group.Number,
				Type:      gr.Group.Type,
				Form:      gr.Summary.MajorityForm,
				WindowD:   float64(gr.Summary.MedianD),
				Predictor: gr.Prediction.Tree,
			}
			if gm.WindowD <= 0 {
				// A degenerate window (tiny group, abrupt failures) would
				// fail FromSet's validation and take the whole fleet down
				// with it; clamp and note instead.
				gm.Note = fmt.Sprintf("degenerate signature window %v clamped to %v", gm.WindowD, MinWindowHours)
				gm.WindowD = MinWindowHours
			}
			set.Models = append(set.Models, gm)
		}
		if ch.Dataset != nil {
			set.Norms[c] = ch.Dataset.Norm
		}
	}
	return set, nil
}

// ModelsFromCharacterization returns the models of SetOf(ch).
func ModelsFromCharacterization(ch *core.Characterization) ([]GroupModel, error) {
	set, err := SetOf(ch)
	return set.Models, err
}
