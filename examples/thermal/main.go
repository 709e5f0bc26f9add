// Thermal: the Sec. V-A diagnosis. Computes temporal z-scores of
// temperature and power-on hours for each failure group against the good
// population, identifies which group runs hottest, and derives the
// paper's operational implications (thermal management for logical
// failures, age-aware backups for head failures).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"disksig"
	"disksig/internal/report"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the report to w.
func run(w io.Writer) error {
	fleet, err := disksig.GenerateFleet(disksig.FleetConfig(disksig.ScaleSmall, 11))
	if err != nil {
		return err
	}
	ch, err := disksig.Characterize(fleet, disksig.Config{Seed: 11, SkipPrediction: true})
	if err != nil {
		return err
	}

	// Temperature z-scores per group over the 20 days before failure.
	lines := map[string][]float64{}
	var xs []float64
	for _, s := range ch.TCZScores {
		lines[fmt.Sprintf("group %d", s.GroupNumber)] = s.Z
		if xs == nil {
			xs = make([]float64, len(s.HoursBefore))
			for i, h := range s.HoursBefore {
				xs[i] = float64(h)
			}
		}
	}
	fmt.Fprintln(w, report.LineChart("Temperature z-scores (x = hours before failure; lower = hotter than good drives)",
		xs, lines, 72, 14))

	hottest, hottestZ := 0, 0.0
	for _, s := range ch.TCZScores {
		if z := s.MeanZ(); z < hottestZ {
			hottest, hottestZ = s.GroupNumber, z
		}
	}
	gr := ch.GroupByNumber(hottest)
	fmt.Fprintf(w, "hottest failure group: Group %d (%s failures), mean z = %.1f\n",
		hottest, gr.Group.Type, hottestZ)
	fmt.Fprintf(w, "=> temperature is the leading environmental factor for %s failures;\n", gr.Group.Type)
	fmt.Fprintln(w, "   thermal-aware placement and drive cooling target the largest failure category.")
	fmt.Fprintln(w)

	// Power-on-hours z-scores: which groups skew old?
	oldest, oldestZ := 0, 0.0
	tb := report.NewTable("Power-on-hours z-scores by group", "Group", "Type", "Mean z")
	for _, s := range ch.POHZScores {
		g := ch.GroupByNumber(s.GroupNumber)
		tb.AddRowf(s.GroupNumber, g.Group.Type.String(), s.MeanZ())
		if z := s.MeanZ(); z < oldestZ {
			oldest, oldestZ = s.GroupNumber, z
		}
	}
	fmt.Fprintln(w, tb.String())
	og := ch.GroupByNumber(oldest)
	fmt.Fprintf(w, "oldest failure group: Group %d (%s failures), mean z = %.1f\n",
		oldest, og.Group.Type, oldestZ)
	fmt.Fprintln(w, "=> prioritize backups for aged drives to blunt head-failure data loss.")
	return nil
}
