// Categorize: a deep dive into failure categorization (Sec. IV-B of the
// paper). Generates a fleet, walks through the elbow analysis, clusters
// the failure records, projects them with PCA, and compares each group's
// decile distributions against good drives.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"disksig"
	"disksig/internal/cluster"
	"disksig/internal/pca"
	"disksig/internal/report"
	"disksig/internal/smart"
	"disksig/internal/stats"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the report to w.
func run(w io.Writer) error {
	fleet, err := disksig.GenerateFleet(disksig.FleetConfig(disksig.ScaleSmall, 7))
	if err != nil {
		return err
	}
	// Categorization only — skip the expensive prediction stage.
	ch, err := disksig.Characterize(fleet, disksig.Config{Seed: 7, SkipPrediction: true})
	if err != nil {
		return err
	}
	cat := ch.Categorization

	// 1. The elbow curve: average within-group distance for k = 1..10.
	labels := make([]string, len(cat.Elbow))
	values := make([]float64, len(cat.Elbow))
	for i, p := range cat.Elbow {
		labels[i] = fmt.Sprintf("k=%d", p.K)
		values[i] = p.AvgWithinDistance
	}
	fmt.Fprintln(w, report.BarChart("Average within-group distance by cluster count", labels, values, 48))
	fmt.Fprintf(w, "elbow criterion picks k = %d\n\n", cat.K)

	// 2. The groups and their semantic types.
	for _, g := range cat.Groups {
		fmt.Fprintf(w, "Group %d: %3d drives — %s failures\n", g.Number, len(g.Members), g.Type)
	}
	fmt.Fprintln(w)

	// 3. PCA projection of the 30-feature failure records.
	proj, model, err := pca.Project(cat.Features, 2)
	if err != nil {
		return err
	}
	groups := map[string][][2]float64{}
	for _, g := range cat.Groups {
		name := fmt.Sprintf("%s (%d)", g.Type, len(g.Members))
		for _, m := range g.Members {
			groups[name] = append(groups[name], [2]float64{proj[m][0], proj[m][1]})
		}
	}
	fmt.Fprintln(w, report.ScatterPlot("Failure records in PCA space", groups, 72, 18))
	ratios := model.ExplainedVarianceRatio()
	fmt.Fprintf(w, "PC1 explains %.1f%% of variance, PC2 %.1f%%\n\n", 100*ratios[0], 100*ratios[1])

	// 4. Decile comparison against good drives for the most telling
	// attributes.
	records := fleet.NormalizedFailureRecords()
	for _, a := range []smart.Attr{smart.RUE, smart.RawRSC} {
		tb := report.NewTable(fmt.Sprintf("%s deciles (failure groups vs good)", a),
			"Decile", "G1", "G2", "G3", "good")
		var series [][]float64
		for _, g := range cat.Groups {
			vals := make([]float64, 0, len(g.Members))
			for _, m := range g.Members {
				vals = append(vals, records[m][a])
			}
			series = append(series, stats.Deciles(vals))
		}
		goodVals := make([]float64, len(ch.GoodSample))
		for i, v := range ch.GoodSample {
			goodVals[i] = v[a]
		}
		series = append(series, stats.Deciles(goodVals))
		for d := 0; d < 9; d++ {
			tb.AddRowf(fmt.Sprintf("%d0%%", d+1), series[0][d], series[1][d], series[2][d], series[3][d])
		}
		fmt.Fprintln(w, tb.String())
	}

	// 5. Cross-check K-means against Support Vector Clustering.
	svcRes, err := cluster.SVC(cat.Features, cluster.SVCConfig{Seed: 7})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SVC finds %d clusters; agreement with K-means (Rand index): %.4f\n",
		svcRes.K, cluster.Agreement(cat.Clusters.Assign, svcRes.Assign))
	return nil
}
