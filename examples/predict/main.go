// Predict: degradation prediction (Sec. V-B of the paper). Trains the
// per-group regression trees with signature-derived targets, reports
// Table III-style errors, compares against the prior-work baseline
// detectors, and walks a single failing drive through its predicted
// degradation timeline.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"disksig"
	"disksig/internal/predict"
	"disksig/internal/report"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains the models and writes the report to w.
func run(w io.Writer) error {
	fleet, err := disksig.GenerateFleet(disksig.FleetConfig(disksig.ScaleSmall, 3))
	if err != nil {
		return err
	}
	ch, err := disksig.Characterize(fleet, disksig.Config{Seed: 3})
	if err != nil {
		return err
	}

	// Table III: per-group prediction performance.
	tb := report.NewTable("Degradation prediction (regression trees, signature targets)",
		"Group", "Type", "Signature", "RMSE", "Error rate")
	for _, gr := range ch.Results {
		tb.AddRowf(gr.Group.Number, gr.Group.Type.String(), gr.Summary.MajorityForm.String(),
			gr.Prediction.RMSE, fmt.Sprintf("%.1f%%", 100*gr.Prediction.ErrorRate))
	}
	fmt.Fprintln(w, tb.String())

	// The Group 1 tree (Fig. 13): which attributes does it split on?
	g1 := ch.GroupByNumber(1)
	fmt.Fprintln(w, "Group 1 regression tree:")
	fmt.Fprintln(w, g1.Prediction.Tree.Render(predict.AttrNames()))
	imp := report.NewTable("Group 1 attribute importance", "Attr", "Share")
	for i, name := range predict.AttrNames() {
		if g1.Prediction.Importance[i] > 0.01 {
			imp.AddRowf(name, g1.Prediction.Importance[i])
		}
	}
	fmt.Fprintln(w, imp.String())

	// Track one failing drive through its final day: the tree's predicted
	// degradation should fall toward -1 as the failure approaches.
	failed := fleet.NormalizedFailed()
	idx := g1.Group.CentroidDrive
	drive := failed[idx]
	fmt.Fprintf(w, "predicted degradation of drive #%d over its final 24 hours:\n", drive.DriveID)
	n := drive.Len()
	for _, hoursBefore := range []int{24, 18, 12, 8, 4, 2, 1, 0} {
		rec := drive.Records[n-1-hoursBefore]
		pred := g1.Prediction.Tree.Predict(rec.Values.Slice())
		fmt.Fprintf(w, "  %2d hours before failure: %+.2f\n", hoursBefore, pred)
	}
	fmt.Fprintln(w, "\n(-1 = failure event, 0 = window edge, 1 = healthy)")
	return nil
}
