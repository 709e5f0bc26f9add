package experiments

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"disksig/internal/synth"
)

var update = flag.Bool("update", false, "rewrite "+metricsGoldenPath+" with the observed small-scale metrics")

// metricsGoldenPath pins every headline metric of the small-scale, seed-1
// suite as WriteMetricsCSV writes them.
const metricsGoldenPath = "testdata/metrics_small.golden.csv"

var (
	ctxOnce sync.Once
	ctxVal  *Context
	ctxErr  error
)

// testContext builds the small-scale experiment context once per test run.
func testContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		ctxVal, ctxErr = NewContext(synth.ScaleSmall, 1)
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctxVal
}

func TestTable1(t *testing.T) {
	r := Table1AttributeRegistry()
	if r.Metrics["attributes"] != 12 {
		t.Errorf("attributes = %v", r.Metrics["attributes"])
	}
	if !strings.Contains(r.Text, "R-RSC") || !strings.Contains(r.Text, "Temperature Celsius") {
		t.Errorf("Table I content:\n%s", r.Text)
	}
	if r.Header() == "" {
		t.Error("empty header")
	}
}

func TestFig01(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig01ProfileDurations()
	if err != nil {
		t.Fatal(err)
	}
	if f := r.Metrics["full_profile_frac"]; math.Abs(f-0.513) > 0.12 {
		t.Errorf("full profile frac = %v, want ~0.513", f)
	}
	if f := r.Metrics["over_10day_frac"]; math.Abs(f-0.785) > 0.12 {
		t.Errorf(">10 day frac = %v, want ~0.785", f)
	}
}

func TestFig02(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig02AttributeSpread()
	if err != nil {
		t.Fatal(err)
	}
	// Large-variation attributes vs near-constant ones (the Fig. 2
	// observation): R-RSC spreads widely; CPSC and HFW stay narrow for
	// most failure records.
	if !(r.Metrics["iqr_R-RSC"] > 4*r.Metrics["iqr_CPSC"]) {
		t.Errorf("R-RSC IQR %v should dwarf CPSC IQR %v", r.Metrics["iqr_R-RSC"], r.Metrics["iqr_CPSC"])
	}
	if !(r.Metrics["iqr_R-RSC"] > 4*r.Metrics["iqr_HFW"]) {
		t.Errorf("R-RSC IQR %v should dwarf HFW IQR %v", r.Metrics["iqr_R-RSC"], r.Metrics["iqr_HFW"])
	}
}

func TestFig03(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig03ClusterElbow()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["selected_k"] != 3 {
		t.Errorf("selected k = %v, want 3", r.Metrics["selected_k"])
	}
}

func TestFig04(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig04PCAGroups()
	if err != nil {
		t.Fatal(err)
	}
	total := r.Metrics["group1_size"] + r.Metrics["group2_size"] + r.Metrics["group3_size"]
	if int(total) != len(ctx.Dataset.Failed) {
		t.Errorf("group sizes sum to %v, want %d", total, len(ctx.Dataset.Failed))
	}
	if r.Metrics["pc1_var"] <= r.Metrics["pc2_var"] {
		t.Error("PC1 should explain more variance than PC2")
	}
}

func TestFig05(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig05CentroidRecords()
	if err != nil {
		t.Fatal(err)
	}
	// Group 2's centroid has the lowest RUE; group 3's the highest R-RSC.
	if !(r.Metrics["g2_RUE"] < r.Metrics["g1_RUE"] && r.Metrics["g2_RUE"] < r.Metrics["g3_RUE"]) {
		t.Errorf("RUE centroids: g1=%v g2=%v g3=%v", r.Metrics["g1_RUE"], r.Metrics["g2_RUE"], r.Metrics["g3_RUE"])
	}
	if !(r.Metrics["g3_R-RSC"] > r.Metrics["g1_R-RSC"]) {
		t.Errorf("R-RSC centroids: g1=%v g3=%v", r.Metrics["g1_R-RSC"], r.Metrics["g3_R-RSC"])
	}
	if strings.Contains(r.Text, "RSC ") && strings.Contains(strings.Split(r.Text, "\n")[3], "RSC ") {
		// RSC (linear transform of R-RSC) must be omitted per the paper.
		t.Error("Fig. 5 should omit RSC")
	}
}

func TestFig06(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig06DecileComparison()
	if err != nil {
		t.Fatal(err)
	}
	// Group 3 R-RSC deciles sit near the top of the range (paper: all
	// above 0.94); group 2's RUE is far below good.
	if r.Metrics["g3_R-RSC_median"] < 0.85 {
		t.Errorf("g3 R-RSC median = %v, want near 1", r.Metrics["g3_R-RSC_median"])
	}
	if !(r.Metrics["g2_RUE_median"] < r.Metrics["good_RUE_median"]-0.5) {
		t.Errorf("g2 RUE median = %v vs good %v", r.Metrics["g2_RUE_median"], r.Metrics["good_RUE_median"])
	}
}

func TestTable2(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Table2FailureCategories()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Metrics["group1_pop"]-0.596) > 0.08 {
		t.Errorf("group 1 population = %v", r.Metrics["group1_pop"])
	}
	if !strings.Contains(r.Text, "logical") || !strings.Contains(r.Text, "bad-sector") || !strings.Contains(r.Text, "read/write-head") {
		t.Errorf("Table II types:\n%s", r.Text)
	}
}

func TestFig07(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig07DistanceCurves()
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= 3; g++ {
		key := "group" + string(rune('0'+g)) + "_final_dist"
		if r.Metrics[key] != 0 {
			t.Errorf("%s = %v, want 0", key, r.Metrics[key])
		}
	}
}

func TestFig08(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig08SignatureFits()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["group1_best_order"] != 2 {
		t.Errorf("group 1 order = %v, want 2", r.Metrics["group1_best_order"])
	}
	if r.Metrics["group2_best_order"] != 1 {
		t.Errorf("group 2 order = %v, want 1", r.Metrics["group2_best_order"])
	}
	if r.Metrics["group3_best_order"] != 3 {
		t.Errorf("group 3 order = %v, want 3", r.Metrics["group3_best_order"])
	}
	if !(r.Metrics["group2_median_d"] > 10*r.Metrics["group1_median_d"]) {
		t.Errorf("window medians: g1=%v g2=%v", r.Metrics["group1_median_d"], r.Metrics["group2_median_d"])
	}
}

func TestFig09(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig09AttrCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Metrics["g1_RRER"]) < 0.7 {
		t.Errorf("g1 RRER corr = %v, want strong", r.Metrics["g1_RRER"])
	}
	if math.Abs(r.Metrics["g2_RUE"]) < 0.7 {
		t.Errorf("g2 RUE corr = %v, want strong", r.Metrics["g2_RUE"])
	}
}

func TestFig10(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig10EnvCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	// POH correlates strongly with the top attribute inside the window
	// (both monotone) but weakly over the full profile for group 1.
	g1 := ctx.Char.GroupByNumber(1)
	top := g1.Influence.TopAttrs[0].String()
	win := math.Abs(r.Metrics["g1_POH_"+top+"_window"])
	full := math.Abs(r.Metrics["g1_POH_"+top+"_full"])
	if !(win > 0.5) {
		t.Errorf("g1 POH window corr = %v, want strong", win)
	}
	if !(full < win) {
		t.Errorf("g1 POH full-profile corr %v should be below window corr %v", full, win)
	}
}

func TestFig11And12(t *testing.T) {
	ctx := testContext(t)
	r11, err := ctx.Fig11TCZScores()
	if err != nil {
		t.Fatal(err)
	}
	if !(r11.Metrics["group1_mean_z"] < r11.Metrics["group2_mean_z"] &&
		r11.Metrics["group1_mean_z"] < r11.Metrics["group3_mean_z"]) {
		t.Errorf("TC z means = %v, want group 1 most negative", r11.Metrics)
	}
	r12, err := ctx.Fig12POHZScores()
	if err != nil {
		t.Fatal(err)
	}
	if !(r12.Metrics["group3_mean_z"] < r12.Metrics["group1_mean_z"] &&
		r12.Metrics["group3_mean_z"] < r12.Metrics["group2_mean_z"]) {
		t.Errorf("POH z means = %v, want group 3 most negative", r12.Metrics)
	}
}

func TestFig13(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Fig13RegressionTree()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["depth"] < 1 || r.Metrics["leaves"] < 2 {
		t.Errorf("tree depth/leaves = %v/%v", r.Metrics["depth"], r.Metrics["leaves"])
	}
	// TC must matter for Group 1 prediction (the paper's critical
	// attributes for Group 1 include TC).
	if r.Metrics["imp_TC"] < 0.05 {
		t.Errorf("TC importance = %v, want > 0.05", r.Metrics["imp_TC"])
	}
}

func TestTable3(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.Table3PredictionError()
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= 3; g++ {
		key := "group" + string(rune('0'+g)) + "_error_rate"
		if r.Metrics[key] <= 0 || r.Metrics[key] > 0.2 {
			t.Errorf("%s = %v", key, r.Metrics[key])
		}
	}
	if !(r.Metrics["group1_error_rate"] > r.Metrics["group2_error_rate"]) {
		t.Errorf("group 1 error %v should exceed group 2 %v (paper ordering)",
			r.Metrics["group1_error_rate"], r.Metrics["group2_error_rate"])
	}
}

func TestAblationA(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.AblationDistanceMetric()
	if err != nil {
		t.Fatal(err)
	}
	// Euclidean resolves multiple distinct near-failure levels on every
	// group (the paper's justification for preferring it); the table also
	// reports the Mahalanobis numbers for comparison.
	for g := 1; g <= 3; g++ {
		gs := string(rune('0' + g))
		if r.Metrics["g"+gs+"_euclidean_distinct"] < 3 {
			t.Errorf("group %d: euclidean resolves only %v distinct levels", g,
				r.Metrics["g"+gs+"_euclidean_distinct"])
		}
		if r.Metrics["g"+gs+"_mahalanobis_distinct"] == 0 {
			t.Errorf("group %d: missing mahalanobis metric", g)
		}
	}
}

func TestAblationB(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.AblationClusteringMethod()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["agreement"] < 0.9 {
		t.Errorf("K-means/SVC agreement = %v, want >= 0.9", r.Metrics["agreement"])
	}
}

func TestAblationC(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.AblationSignatureForms()
	if err != nil {
		t.Fatal(err)
	}
	// Group 1: revised quadratic beats the unrevised Eq. 2 (the paper's
	// 0.06 vs 0.24 comparison). The full-quadratic metric key is order 2
	// as well, so compare via the rendered table instead.
	if !strings.Contains(r.Text, "t^2/d^2 - t/(3d) - 1") {
		t.Errorf("ablation C missing Eq. 2 row:\n%s", r.Text)
	}
}

func TestAblationD(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.AblationBaselineDetectors()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["threshold_far"] > 0.05 {
		t.Errorf("threshold FAR = %v, want small", r.Metrics["threshold_far"])
	}
	if r.Metrics["rank-sum_fdr"] <= r.Metrics["threshold_fdr"]-0.5 {
		t.Errorf("rank-sum FDR %v unexpectedly far below threshold FDR %v",
			r.Metrics["rank-sum_fdr"], r.Metrics["threshold_fdr"])
	}
}

func TestAblationE(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.AblationPredictionMethods()
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= 3; g++ {
		key := fmt.Sprintf("g%d_regression_rmse", g)
		if r.Metrics[key] <= 0 || r.Metrics[key] > 0.5 {
			t.Errorf("%s = %v", key, r.Metrics[key])
		}
	}
}

func TestAblationF(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.AblationBackupWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["bad_sector_pop"] < 0.5 {
		t.Errorf("backup fleet bad-sector population = %v, want dominant", r.Metrics["bad_sector_pop"])
	}
}

func TestAllRunsEverything(t *testing.T) {
	ctx := testContext(t)
	results, err := ctx.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 24 {
		t.Fatalf("results = %d, want 24", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.Text == "" {
			t.Errorf("%s has empty text", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	t.Run("golden", func(t *testing.T) { checkMetricsGolden(t, results) })
}

// checkMetricsGolden compares the suite's metrics with the committed
// golden file exactly, naming every artifact and metric that differs.
// With -update it rewrites the file instead. The values are pinned on
// amd64 only: arm64 may fuse a multiply and an add, which can move the
// last bits of a fitted coefficient and every metric derived from it.
func checkMetricsGolden(t *testing.T, results []*Result) {
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(metricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", metricsGoldenPath)
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("metrics are pinned on amd64; on %s fused multiply-adds may move their last bits", runtime.GOARCH)
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/experiments -run TestAllRunsEverything -update' to create it)", err)
	}
	got, wantRows := metricRows(t, buf.Bytes()), metricRows(t, want)
	for _, k := range sortedKeys(wantRows) {
		if g, ok := got[k]; !ok {
			t.Errorf("%s %s: missing, want %s", k.artifact, k.metric, wantRows[k])
		} else if g != wantRows[k] {
			t.Errorf("%s %s = %s, want %s", k.artifact, k.metric, g, wantRows[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := wantRows[k]; !ok {
			t.Errorf("%s %s = %s, not in %s", k.artifact, k.metric, got[k], metricsGoldenPath)
		}
	}
	if t.Failed() {
		t.Logf("%s differs (run with -update if the change is intentional)", metricsGoldenPath)
	}
}

type metricKey struct{ artifact, metric string }

// metricRows parses WriteMetricsCSV output into value strings by artifact
// and metric.
func metricRows(t *testing.T, data []byte) map[metricKey]string {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[metricKey]string, len(recs))
	for _, r := range recs[1:] {
		rows[metricKey{r[0], r[1]}] = r[2]
	}
	return rows
}

func sortedKeys(rows map[metricKey]string) []metricKey {
	keys := make([]metricKey, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].artifact != keys[j].artifact {
			return keys[i].artifact < keys[j].artifact
		}
		return keys[i].metric < keys[j].metric
	})
	return keys
}

func TestAblationG(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.AblationProactiveRAID()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["detection_rate"] < 0.7 {
		t.Errorf("held-out detection rate = %v, want high", r.Metrics["detection_rate"])
	}
	if r.Metrics["false_alarm_rate"] > 0.25 {
		t.Errorf("false alarm rate = %v, want modest", r.Metrics["false_alarm_rate"])
	}
	if !(r.Metrics["proactive_loss"] < r.Metrics["reactive_loss"]) {
		t.Errorf("proactive loss %v should be below reactive %v",
			r.Metrics["proactive_loss"], r.Metrics["reactive_loss"])
	}
	if r.Metrics["median_lead_h"] <= 0 {
		t.Errorf("median lead = %v", r.Metrics["median_lead_h"])
	}
}

func TestAblationH(t *testing.T) {
	ctx := testContext(t)
	r, err := ctx.AblationRescueTime()
	if err != nil {
		t.Fatal(err)
	}
	// Critical-stage estimates are inside the degradation window; the
	// median absolute error should be far below the 480-hour profile.
	if e := r.Metrics["critical_median_abs_err"]; !(e > 0) || e > 200 {
		t.Errorf("critical median abs error = %v", e)
	}
	// A laxer warning threshold never detects fewer failed drives.
	if r.Metrics["warn_0.3_detected"] < r.Metrics["warn_-0.4_detected"] {
		t.Errorf("threshold sweep not monotone: %v < %v",
			r.Metrics["warn_0.3_detected"], r.Metrics["warn_-0.4_detected"])
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	results := []*Result{
		{ID: "Fig. X", Metrics: map[string]float64{"b": 2, "a": 1}},
		{ID: "Table Y", Metrics: map[string]float64{"c": 0.5}},
	}
	var buf strings.Builder
	if err := WriteMetricsCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "artifact,metric,value\nFig. X,a,1\nFig. X,b,2\nTable Y,c,0.5\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	ctx := testContext(t)
	a, err := ctx.Fig08SignatureFits()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Fig08SignatureFits()
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Error("Fig. 8 not deterministic across invocations")
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}
