package experiments

import (
	"fmt"
	"math"

	"disksig/internal/monitor"
	"disksig/internal/report"
	"disksig/internal/stats"
	"disksig/internal/synth"
)

// AblationRescueTime evaluates the paper's claim that modeling the
// degradation process lets operators "accurately estimate the available
// time for data rescue": on a held-out fleet, every monitor alert's
// time-to-failure estimate (obtained by inverting the group signature) is
// compared with the drive's actual remaining hours. A threshold sweep of
// the warning level shows the detection/false-warning trade-off across
// deterioration stages.
func (ctx *Context) AblationRescueTime() (*Result, error) {
	// Held-out fleet.
	cfg := synth.DefaultConfig(synth.ScaleSmall)
	cfg.Seed = ctx.Seed + 2_000_000
	held, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}

	// Part 1 — ETA accuracy per severity stage.
	m, err := monitor.FromCharacterization(ctx.Char, monitor.Config{})
	if err != nil {
		return nil, err
	}
	mon := monitor.NewSparse(m) // drives are keyed by fleet DriveID
	const maxFailed = 40
	absErr := map[monitor.Severity][]float64{}
	within2x := map[monitor.Severity]int{}
	counts := map[monitor.Severity]int{}
	replayed := 0
	for _, p := range held.Failed {
		if replayed >= maxFailed {
			break
		}
		replayed++
		failHour := p.Records[p.Len()-1].Hour
		for _, rec := range p.Records {
			a := mon.Ingest(p.DriveID, rec)
			if a == nil || math.IsInf(a.HoursToFailure, 1) {
				continue
			}
			actual := float64(failHour - rec.Hour)
			counts[a.Severity]++
			absErr[a.Severity] = append(absErr[a.Severity], math.Abs(a.HoursToFailure-actual))
			if actual > 0 && a.HoursToFailure <= 2*actual && a.HoursToFailure >= actual/2 {
				within2x[a.Severity]++
			}
		}
	}
	tb := report.NewTable("Time-to-failure estimates at alert time (held-out drives)",
		"Severity", "Alerts", "Median |error| (h)", "Within 2x of actual")
	metrics := map[string]float64{}
	for _, sev := range []monitor.Severity{monitor.Warning, monitor.Critical} {
		if counts[sev] == 0 {
			continue
		}
		med := stats.Median(absErr[sev])
		frac := float64(within2x[sev]) / float64(counts[sev])
		tb.AddRowf(sev.String(), counts[sev], med, fmt.Sprintf("%.0f%%", 100*frac))
		metrics[sev.String()+"_median_abs_err"] = med
		metrics[sev.String()+"_within2x"] = frac
	}

	// Part 2 — warning-threshold sweep (detection vs false warnings at
	// different deterioration stages).
	sweep := report.NewTable("Warning-threshold sweep on the held-out fleet",
		"Warn below", "Failed drives warned", "Good drives warned")
	const maxGood = 100
	for _, warnBelow := range []float64{0.3, 0.1, 1e-9, -0.2, -0.4} {
		swept, err := monitor.FromCharacterization(ctx.Char, monitor.Config{WarnBelow: warnBelow})
		if err != nil {
			return nil, err
		}
		m2 := monitor.NewSparse(swept) // good drives are offset by 1,000,000
		warned, nFailed := 0, 0
		for _, p := range held.Failed {
			if nFailed >= maxFailed {
				break
			}
			nFailed++
			for _, rec := range p.Records {
				if a := m2.Ingest(p.DriveID, rec); a != nil && a.Severity >= monitor.Warning {
					warned++
					break
				}
			}
		}
		falseWarned, nGood := 0, 0
		for _, p := range held.Good {
			if nGood >= maxGood {
				break
			}
			nGood++
			for _, rec := range p.Records {
				if a := m2.Ingest(1_000_000+p.DriveID, rec); a != nil && a.Severity >= monitor.Warning {
					falseWarned++
					break
				}
			}
		}
		sweep.AddRowf(fmt.Sprintf("%+.1f", warnBelow),
			fmt.Sprintf("%d/%d", warned, nFailed),
			fmt.Sprintf("%d/%d", falseWarned, nGood))
		metrics[fmt.Sprintf("warn_%.1f_detected", warnBelow)] = float64(warned) / float64(nFailed)
		metrics[fmt.Sprintf("warn_%.1f_false", warnBelow)] = float64(falseWarned) / float64(nGood)
	}

	text := tb.String() + "\n" + sweep.String() +
		"\npaper claim: degradation modeling lets operators estimate the time available for data rescue\n"
	return &Result{ID: "Ablation H", Name: "rescue-time estimation", Text: text, Metrics: metrics}, nil
}
