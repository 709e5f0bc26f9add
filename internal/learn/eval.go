package learn

import (
	"fmt"

	"disksig/internal/monitor"
	"disksig/internal/parallel"
)

// Score summarizes one model set's shadow evaluation on the held-out
// cohort: did the monitor flag (reach Warning or worse on) the drives
// the harvest labeled failing, and only those?
type Score struct {
	EvalDrives     int
	Flagged        int
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	Precision      float64
	Recall         float64
	// F1 is the promotion criterion: the harmonic precision/recall
	// mean, 0 when the model flags nothing real.
	F1 float64
}

func (s Score) String() string {
	return fmt.Sprintf("F1 %.3f (precision %.3f, recall %.3f, %d/%d flagged)",
		s.F1, s.Precision, s.Recall, s.Flagged, s.EvalDrives)
}

// Evaluate replays every held-out drive through a fresh monitor built
// from the given model set and scores the flag decisions against the
// harvest labels. Harvest holds out HDDs only, which score against the
// set's HDD models, so a mixed set is evaluated whole. It also returns
// the per-drive decisions (in eval order) so callers can measure
// agreement between two model sets. The replay fans out per drive via
// internal/parallel — evaluation runs off the ingest hot path and must
// not serialize on it.
func Evaluate(set monitor.ModelSet, mcfg monitor.Config, eval []EvalDrive, workers int) (Score, []bool, error) {
	sc := Score{EvalDrives: len(eval)}
	if len(eval) == 0 {
		return sc, nil, nil
	}
	type outcome struct {
		flagged bool
		err     error
	}
	outcomes := parallel.Map(workers, len(eval), func(i int) outcome {
		m, err := monitor.FromSet(set, mcfg)
		if err != nil {
			return outcome{err: fmt.Errorf("learn: evaluating drive %s: %w", eval[i].Serial, err)}
		}
		for _, rec := range eval[i].Records {
			m.Ingest(0, rec)
		}
		st, ok := m.Status(0)
		return outcome{flagged: ok && st.Severity >= monitor.Warning}
	})
	flags := make([]bool, len(eval))
	for i, o := range outcomes {
		if o.err != nil {
			return sc, nil, o.err
		}
		flags[i] = o.flagged
		switch {
		case o.flagged && eval[i].Failing:
			sc.TruePositives++
		case o.flagged && !eval[i].Failing:
			sc.FalsePositives++
		case !o.flagged && eval[i].Failing:
			sc.FalseNegatives++
		}
		if o.flagged {
			sc.Flagged++
		}
	}
	if sc.TruePositives+sc.FalsePositives > 0 {
		sc.Precision = float64(sc.TruePositives) / float64(sc.TruePositives+sc.FalsePositives)
	}
	if sc.TruePositives+sc.FalseNegatives > 0 {
		sc.Recall = float64(sc.TruePositives) / float64(sc.TruePositives+sc.FalseNegatives)
	}
	if sc.Precision+sc.Recall > 0 {
		sc.F1 = 2 * sc.Precision * sc.Recall / (sc.Precision + sc.Recall)
	}
	return sc, flags, nil
}
