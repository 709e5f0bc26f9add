package experiments

import (
	"fmt"

	"disksig/internal/monitor"
	"disksig/internal/raidsim"
	"disksig/internal/report"
	"disksig/internal/stats"
	"disksig/internal/synth"
)

// AblationProactiveRAID operationalizes Sec. V: the degradation monitor
// built from the characterization is evaluated on a held-out fleet
// (detection rate, false-alarm rate, warning lead time), and those
// numbers drive a Monte Carlo RAID-5 model comparing reactive
// replace-on-failure against signature-guided proactive replacement.
func (ctx *Context) AblationProactiveRAID() (*Result, error) {
	m, err := monitor.FromCharacterization(ctx.Char, monitor.Config{})
	if err != nil {
		return nil, err
	}
	// Drives are keyed by fleet DriveID, good ones offset by 1,000,000.
	mon := monitor.NewSparse(m)

	// A held-out fleet the predictors never saw.
	cfg := synth.DefaultConfig(synth.ScaleSmall)
	cfg.Seed = ctx.Seed + 1_000_000
	held, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}

	const maxFailed, maxGood = 40, 120
	var leadTimes []float64
	detected, replayedFailed := 0, 0
	for _, p := range held.Failed {
		if replayedFailed >= maxFailed {
			break
		}
		replayedFailed++
		firstWarn := -1
		for _, rec := range p.Records {
			if a := mon.Ingest(p.DriveID, rec); a != nil && a.Severity >= monitor.Warning && firstWarn < 0 {
				firstWarn = rec.Hour
			}
		}
		if firstWarn >= 0 {
			detected++
			leadTimes = append(leadTimes, float64(p.Len()-1-firstWarn))
		}
	}
	falseWarned, replayedGood := 0, 0
	for _, p := range held.Good {
		if replayedGood >= maxGood {
			break
		}
		replayedGood++
		for _, rec := range p.Records {
			if a := mon.Ingest(1_000_000+p.DriveID, rec); a != nil && a.Severity >= monitor.Warning {
				falseWarned++
				break
			}
		}
	}
	detectionRate := float64(detected) / float64(replayedFailed)
	falseAlarmRate := float64(falseWarned) / float64(replayedGood)
	medianLead := stats.Median(leadTimes)

	params := raidsim.DefaultParams()
	params.Groups = 2000
	reactive, pro, reduction, err := raidsim.Compare(params, raidsim.Proactive(detectionRate, falseAlarmRate), ctx.Seed)
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("Signature-guided proactive replacement vs reactive RAID-5 operation",
		"Policy", "Rebuilds", "Data-loss events", "Loss/group-year", "Extra replacements")
	tb.AddRowf(reactive.Policy.Name, reactive.Rebuilds, reactive.DataLossEvents,
		reactive.LossPerGroupYear(), reactive.ExtraReplacements)
	tb.AddRowf(pro.Policy.Name, pro.Rebuilds, pro.DataLossEvents,
		pro.LossPerGroupYear(), pro.ExtraReplacements)

	text := fmt.Sprintf(
		"monitor on held-out fleet: detection %.1f%% (%d/%d drives), false warnings %.1f%% (%d/%d), median lead %.0fh\n\n",
		100*detectionRate, detected, replayedFailed, 100*falseAlarmRate, falseWarned, replayedGood, medianLead) +
		tb.String() +
		fmt.Sprintf("\ndata-loss reduction factor: %.1fx\n", reduction)
	return &Result{
		ID:   "Ablation G",
		Name: "proactive replacement impact (RAID-5)",
		Text: text,
		Metrics: map[string]float64{
			"detection_rate":   detectionRate,
			"false_alarm_rate": falseAlarmRate,
			"median_lead_h":    medianLead,
			"reactive_loss":    float64(reactive.DataLossEvents),
			"proactive_loss":   float64(pro.DataLossEvents),
			"reduction":        reduction,
		},
	}, nil
}
