package monitor

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"disksig/internal/core"
	"disksig/internal/predict"
	"disksig/internal/quality"
	"disksig/internal/regression"
	"disksig/internal/signature"
	"disksig/internal/smart"
	"disksig/internal/tree"
)

// rampPredictor scores records by their RRER value directly, making test
// trajectories easy to construct.
type rampPredictor struct{}

func (rampPredictor) Predict(x []float64) float64 { return x[smart.RRER] }

// testNormalizer returns an identity-ish normalizer over [-1, 1].
func testNormalizer() *smart.Normalizer {
	n := smart.NewNormalizer()
	var lo, hi smart.Values
	for a := range lo {
		lo[a] = -1
		hi[a] = 1
	}
	n.Observe(lo)
	n.Observe(hi)
	return n
}

func testModels() []GroupModel {
	return []GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: rampPredictor{},
	}}
}

func record(hour int, score float64) smart.Record {
	var v smart.Values
	v[smart.RRER] = score
	return smart.Record{Hour: hour, Values: v}
}

func TestNewValidation(t *testing.T) {
	norm := testNormalizer()
	if _, err := New(nil, norm, Config{}); err == nil {
		t.Error("expected error for no models")
	}
	if _, err := New([]GroupModel{{Group: 1, WindowD: 12}}, norm, Config{}); err == nil {
		t.Error("expected error for missing predictor")
	}
	if _, err := New([]GroupModel{{Group: 1, Predictor: rampPredictor{}}}, norm, Config{}); err == nil {
		t.Error("expected error for missing window")
	}
	if _, err := New(testModels(), smart.NewNormalizer(), Config{}); err == nil {
		t.Error("expected error for unfitted normalizer")
	}
	if _, err := New(testModels(), nil, Config{}); err == nil {
		t.Error("expected error for nil normalizer")
	}
}

// TestModelSetFitsVerdictIndex: a slot keeps its worst model's index in
// 16 bits, so FromSet rejects a larger model set, and the last index of
// the largest accepted set still names its model.
func TestModelSetFitsVerdictIndex(t *testing.T) {
	models := make([]GroupModel, maxModels+1)
	for i := range models {
		models[i] = testModels()[0]
	}
	if _, err := New(models, testNormalizer(), Config{}); err == nil {
		t.Fatalf("New accepted %d models", len(models))
	}
	models = models[:maxModels]
	models[maxModels-1].Group, models[maxModels-1].Predictor = 7, negPredictor{}
	m, err := New(models, testNormalizer(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(1, record(0, 0.9))
	if st, _ := m.Status(1); st.Group != 7 || st.Degradation > -0.8 {
		t.Fatalf("status %+v, want group 7 at degradation about -0.9", st)
	}
}

func TestEscalationLadder(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy: no alert.
	if a := m.Ingest(1, record(0, 0.9)); a != nil {
		t.Errorf("healthy record alerted: %v", a)
	}
	// Watch.
	a := m.Ingest(1, record(1, 0.3))
	if a == nil || a.Severity != Watch {
		t.Fatalf("watch alert = %v", a)
	}
	if math.IsInf(a.HoursToFailure, 1) == false {
		t.Errorf("watch-stage drive should have no failure ETA, got %v", a.HoursToFailure)
	}
	// Warning: inside the window.
	a = m.Ingest(1, record(2, -0.2))
	if a == nil || a.Severity != Warning {
		t.Fatalf("warning alert = %v", a)
	}
	// ETA from s = -0.2, quadratic d=12: t = 12*sqrt(0.8).
	want := 12 * math.Sqrt(0.8)
	if math.Abs(a.HoursToFailure-want) > 1e-9 {
		t.Errorf("ETA = %v, want %v", a.HoursToFailure, want)
	}
	// Critical.
	a = m.Ingest(1, record(3, -0.8))
	if a == nil || a.Severity != Critical {
		t.Fatalf("critical alert = %v", a)
	}
	if a.String() == "" || !strings.Contains(a.String(), "critical") {
		t.Errorf("alert string: %q", a.String())
	}
	// Staying critical: no repeated alert.
	if a := m.Ingest(1, record(4, -0.9)); a != nil {
		t.Errorf("repeated critical alerted: %v", a)
	}
	st, ok := m.Status(1)
	if !ok || st.Severity != Critical || st.DriveID != 1 || st.LastHour != 4 {
		t.Errorf("status = %+v", st)
	}
	if m.Tracked() != 1 {
		t.Errorf("tracked = %d", m.Tracked())
	}
}

func TestDeescalationSilent(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(5, record(0, -0.8)) // straight to critical
	if a := m.Ingest(5, record(1, 0.9)); a != nil {
		t.Errorf("de-escalation alerted: %v", a)
	}
	st, _ := m.Status(5)
	if st.Severity != Healthy {
		t.Errorf("severity after recovery = %v", st.Severity)
	}
	// Re-escalation alerts again.
	if a := m.Ingest(5, record(2, -0.8)); a == nil {
		t.Error("re-escalation should alert")
	}
}

func TestSmoothingSuppressesSpikes(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(9, record(0, 0.9))
	m.Ingest(9, record(1, 0.9))
	// A single bad sample: the median of {0.9, 0.9, -0.9} is 0.9.
	if a := m.Ingest(9, record(2, -0.9)); a != nil {
		t.Errorf("single spike alerted: %v", a)
	}
	// Two consecutive bad samples flip the median.
	if a := m.Ingest(9, record(3, -0.9)); a == nil {
		t.Error("sustained degradation should alert")
	}
}

func TestStatusUnknownDrive(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Status(42); ok {
		t.Error("unknown drive should not have status")
	}
}

func TestHoursToFailureInversion(t *testing.T) {
	gm := GroupModel{Form: regression.FormCubic, WindowD: 24}
	// s = -1 => 0 hours; s = 0 => not in window; s = (t/d)^3 - 1 inverts.
	if got := hoursToFailure(gm, -1); got != 0 {
		t.Errorf("t(-1) = %v", got)
	}
	if got := hoursToFailure(gm, 0.2); !math.IsInf(got, 1) {
		t.Errorf("t(0.2) = %v, want +Inf", got)
	}
	s := regression.FormCubic.Eval(10, 24)
	if got := hoursToFailure(gm, s); math.Abs(got-10) > 1e-9 {
		t.Errorf("inverted t = %v, want 10", got)
	}
	// Deep scores clamp to the failure event.
	if got := hoursToFailure(gm, -1.5); got != 0 {
		t.Errorf("t(-1.5) = %v", got)
	}
}

func TestSeverityString(t *testing.T) {
	for _, s := range []Severity{Healthy, Watch, Warning, Critical} {
		if s.String() == "" {
			t.Error("empty severity name")
		}
	}
	if Severity(9).String() == "" {
		t.Error("unknown severity should render")
	}
}

func TestFromCharacterizationRejectsSkipPrediction(t *testing.T) {
	ch := &core.Characterization{
		Results: []*core.GroupResult{{Group: &core.Group{Number: 1}}},
	}
	if _, err := FromCharacterization(ch, Config{}); err == nil {
		t.Error("expected error for missing prediction")
	}
}

// TestModelsFromCharacterizationClampsDegenerateWindow pins the fix for
// the zero-window bug: a tiny group whose members all failed within one
// sample has MedianD == 0, which used to make New reject the entire
// model set ("invalid window") and fail fleet startup.
func TestModelsFromCharacterizationClampsDegenerateWindow(t *testing.T) {
	stump, err := tree.Train([][]float64{{0}, {1}, {0}, {1}}, []float64{0, 1, 0, 1}, tree.Config{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch := &core.Characterization{
		Results: []*core.GroupResult{
			{
				Group:      &core.Group{Number: 1, Type: core.Logical},
				Summary:    &signature.GroupSummary{MajorityForm: regression.FormQuadratic, MedianD: 0},
				Prediction: &predict.DegradationResult{Tree: stump},
			},
			{
				Group:      &core.Group{Number: 2, Type: core.BadSector},
				Summary:    &signature.GroupSummary{MajorityForm: regression.FormLinear, MedianD: 120},
				Prediction: &predict.DegradationResult{Tree: stump},
			},
		},
	}
	models, err := ModelsFromCharacterization(ch)
	if err != nil {
		t.Fatal(err)
	}
	if models[0].WindowD != MinWindowHours {
		t.Errorf("degenerate window = %v, want clamp to %v", models[0].WindowD, MinWindowHours)
	}
	if models[0].Note == "" {
		t.Error("clamped model carries no quality note")
	}
	if models[1].WindowD != 120 || models[1].Note != "" {
		t.Errorf("healthy group altered: window %v note %q", models[1].WindowD, models[1].Note)
	}
	// The clamped set must pass New's validation (no fleet-wide failure).
	if _, err := New(models, testNormalizer(), Config{}); err != nil {
		t.Errorf("New rejected clamped model set: %v", err)
	}
}

// TestEachVisitsEveryDriveOnce: Each hands over every tracked drive
// once, with the verdict of the status Status reports, and a visitor may
// Forget the drive it is handed (the eviction pattern).
func TestEachVisitsEveryDriveOnce(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 50; id++ {
		m.Ingest(id, record(id, 1-float64(id)/25))
	}
	seen := map[int]bool{}
	m.Each(func(v Verdict) {
		if seen[v.DriveID] {
			t.Fatalf("drive %d visited twice", v.DriveID)
		}
		seen[v.DriveID] = true
		if st, _ := m.Status(v.DriveID); v != verdictOf(st) {
			t.Errorf("Each verdict %+v, Status %+v", v, st)
		}
	})
	if len(seen) != 50 {
		t.Fatalf("Each visited %d drives, want 50", len(seen))
	}
	m.Each(func(v Verdict) {
		if v.DriveID%2 == 1 {
			m.Forget(v.DriveID)
		}
	})
	if m.Tracked() != 25 {
		t.Fatalf("Tracked = %d after forgetting odd drives during Each, want 25", m.Tracked())
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(1, record(0, 0.9))  // healthy
	m.Ingest(2, record(0, -0.8)) // critical
	m.Ingest(3, record(0, -0.1)) // warning
	snap := m.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d entries", len(snap))
	}
	// Most at-risk first.
	if snap[0].DriveID != 2 || snap[2].DriveID != 1 {
		t.Errorf("snapshot order = %v %v %v", snap[0].DriveID, snap[1].DriveID, snap[2].DriveID)
	}
	var buf strings.Builder
	if err := m.WriteSnapshotJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed = %d entries", len(parsed))
	}
	if parsed[0]["severity"] != "critical" {
		t.Errorf("first entry severity = %v", parsed[0]["severity"])
	}
	// Healthy drive has null hours_to_failure.
	if parsed[2]["hours_to_failure"] != nil {
		t.Errorf("healthy drive ETA = %v, want null", parsed[2]["hours_to_failure"])
	}
	// Critical drive has a finite ETA.
	if parsed[0]["hours_to_failure"] == nil {
		t.Error("critical drive should have a finite ETA")
	}

	// Behind Sparse the same drives keep the caller's IDs, and ties in
	// the at-risk order still break by those IDs.
	sm, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSparse(sm)
	sp.Ingest(1_000_001, record(0, 0.9))
	sp.Ingest(-2, record(0, -0.8))
	sp.Ingest(3_000_003, record(0, -0.1))
	sp.Ingest(-4, record(0, -0.8))
	buf.Reset()
	if err := sp.WriteSnapshotJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ids []int
	if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil {
		t.Fatal(err)
	}
	for _, e := range parsed {
		ids = append(ids, int(e["drive_id"].(float64)))
	}
	if want := []int{-4, -2, 3_000_003, 1_000_001}; !reflect.DeepEqual(ids, want) {
		t.Errorf("sparse snapshot IDs = %v, want %v", ids, want)
	}
}

func TestIngestQuarantinesNonFinite(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(7, record(0, 0.9))
	// A NaN record must be quarantined, not scored: the drive's state and
	// smoothing window stay untouched.
	if a := m.Ingest(7, record(1, math.NaN())); a != nil {
		t.Errorf("NaN record alerted: %v", a)
	}
	st, _ := m.Status(7)
	if st.LastHour != 0 {
		t.Errorf("NaN record advanced LastHour to %d", st.LastHour)
	}
	q := m.Quality()
	if q.Count(quality.NonFinite) == 0 {
		t.Error("NaN record not counted as non-finite")
	}
	if q.RowsRead != 2 || q.RowsQuarantined != 1 {
		t.Errorf("quality accounting = %d read / %d quarantined", q.RowsRead, q.RowsQuarantined)
	}
	// An Inf record likewise.
	if a := m.Ingest(7, record(1, math.Inf(-1))); a != nil {
		t.Errorf("Inf record alerted: %v", a)
	}
	if q.RowsQuarantined != 2 {
		t.Errorf("quarantined = %d after Inf record", q.RowsQuarantined)
	}
	// The drive still degrades normally afterwards.
	if a := m.Ingest(7, record(1, -0.8)); a == nil || a.Severity != Critical {
		t.Fatalf("post-quarantine degradation alert = %v", a)
	}
}

func TestIngestOutOfOrderDropped(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(8, record(5, 0.9))
	// A stale record (earlier hour) is dropped: severity stays healthy
	// even though the stale score is critical.
	if a := m.Ingest(8, record(3, -0.9)); a != nil {
		t.Errorf("stale record alerted: %v", a)
	}
	st, _ := m.Status(8)
	if st.LastHour != 5 || st.Severity != Healthy {
		t.Errorf("state after stale record = hour %d severity %v", st.LastHour, st.Severity)
	}
	if m.Quality().Count(quality.OutOfOrderTimestamp) != 1 {
		t.Error("stale record not counted as out-of-order")
	}
}

func TestIngestDuplicateHourKeepsLatest(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(9, record(0, 0.9))
	m.Ingest(9, record(1, 0.9))
	m.Ingest(9, record(2, -0.9))
	// Repeating hour 2 with a healthy score replaces the bad sample
	// instead of widening the window: the median stays healthy when the
	// next bad sample arrives (it would flip with {0.9, -0.9, -0.9}).
	m.Ingest(9, record(2, 0.9))
	if a := m.Ingest(9, record(3, -0.9)); a != nil {
		t.Errorf("alert after superseded spike: %v", a)
	}
	if m.Quality().Count(quality.DuplicateTimestamp) != 1 {
		t.Error("duplicate hour not counted")
	}
	// The duplicate is kept-with-issue, not quarantined: it replaced the
	// superseded sample in the smoothing window, so it must show up in
	// the kept count. Only flagged, never dropped.
	if q := m.Quality(); q.RowsRead != 5 || q.RowsQuarantined != 0 || q.RowsKept() != 5 {
		t.Errorf("quality accounting = %d read / %d kept / %d quarantined, want 5/5/0",
			q.RowsRead, q.RowsKept(), q.RowsQuarantined)
	}
}

// TestLedgerInvariantWithDirtyStream pins read = kept + quarantined +
// dropped across every dirty-record class, and that records which
// mutated monitor state (clean, duplicate-replacement) are exactly the
// kept ones.
func TestLedgerInvariantWithDirtyStream(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(4, record(0, 0.9))     // kept
	m.Ingest(4, record(1, 0.9))     // kept
	m.Ingest(4, record(1, 0.8))     // duplicate: kept-with-issue (replaces)
	m.Ingest(4, record(0, -0.9))    // stale: quarantined
	m.Ingest(4, nonFiniteRecord(2)) // non-finite: quarantined
	m.Ingest(4, record(2, 0.7))     // kept
	q := m.Quality()
	if q.RowsRead != q.RowsKept()+q.RowsQuarantined+q.RowsDropped {
		t.Fatalf("ledger invariant broken: read=%d kept=%d quarantined=%d dropped=%d",
			q.RowsRead, q.RowsKept(), q.RowsQuarantined, q.RowsDropped)
	}
	if q.RowsRead != 6 || q.RowsKept() != 4 || q.RowsQuarantined != 2 {
		t.Fatalf("accounting = %d read / %d kept / %d quarantined, want 6/4/2",
			q.RowsRead, q.RowsKept(), q.RowsQuarantined)
	}
	if q.Count(quality.DuplicateTimestamp) != 1 {
		t.Errorf("DuplicateTimestamp = %d, want 1 (flagged even though kept)", q.Count(quality.DuplicateTimestamp))
	}
	// The kept count equals the records that reached the scoring path:
	// drive state reflects exactly 3 distinct hours with hour 1 replaced.
	st, ok := m.Status(4)
	if !ok || st.LastHour != 2 {
		t.Fatalf("drive status = %+v, %v", st, ok)
	}
}

func TestForget(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(1, record(0, -0.9))
	if m.Tracked() != 1 {
		t.Fatalf("Tracked = %d, want 1", m.Tracked())
	}
	if !m.Forget(1) {
		t.Fatal("Forget(1) = false for a tracked drive")
	}
	if m.Forget(1) || m.Forget(2) {
		t.Fatal("Forget of an untracked drive returned true")
	}
	if m.Tracked() != 0 {
		t.Fatalf("Tracked = %d after Forget, want 0", m.Tracked())
	}
	if _, ok := m.Status(1); ok {
		t.Fatal("Status succeeded for a forgotten drive")
	}
	// A forgotten drive that reports again starts fresh: its first
	// record may be any hour, and escalation restarts from Healthy.
	if a := m.Ingest(1, record(0, 0.9)); a != nil {
		t.Errorf("fresh record after Forget alerted: %v", a)
	}
	if q := m.Quality(); q.Count(quality.OutOfOrderTimestamp) != 0 {
		t.Error("record after Forget counted as out-of-order")
	}
}
