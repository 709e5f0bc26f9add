package learn

import (
	"fmt"
	"reflect"
	"testing"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/regression"
	"disksig/internal/smart"
	"disksig/internal/synth"
)

// history synthesizes n hourly records whose health attributes start at
// base and whose attribute a ramps down by drop points over the run.
// Every other health attribute stays flat, so the label comes from a
// alone.
func history(n int, a smart.Attr, base, drop float64) []smart.Record {
	recs := make([]smart.Record, n)
	for i := range recs {
		var v smart.Values
		for x := int(smart.RRER); x <= int(smart.SUT); x++ {
			v[x] = base
		}
		v[a] = base - drop*float64(i)/float64(n-1)
		recs[i] = smart.Record{Hour: i, Values: v}
	}
	return recs
}

func stateWith(entries ...fleet.DriveEntry) *fleet.State {
	st := &fleet.State{Drives: entries, HasHour: true}
	for _, e := range entries {
		if n := len(e.History); n > 0 && e.History[n-1].Hour > st.MaxHour {
			st.MaxHour = e.History[n-1].Hour
		}
	}
	return st
}

func TestLabelFailing(t *testing.T) {
	for _, tc := range []struct {
		name string
		hist []smart.Record
		want bool
	}{
		{"flat-healthy", history(48, smart.RRER, 95, 0), false},
		{"strong-single-drop", history(48, smart.RRER, 95, 30), true},
		{"moderate-single-drop", history(48, smart.RRER, 95, 6), false},
		{"noise-below-moderate", history(48, smart.SER, 95, 2), false},
	} {
		if got := labelFailing(tc.hist); got != tc.want {
			t.Errorf("labelFailing(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Two moderate drops together mark the drive failing even though
	// neither alone is strong.
	hist := history(48, smart.RRER, 95, 6)
	for i := range hist {
		hist[i].Values[smart.RSC] = 95 - 6*float64(i)/float64(len(hist)-1)
	}
	if !labelFailing(hist) {
		t.Error("two moderate drops did not mark the drive failing")
	}
}

func TestHarvestCohortsAndDeterminism(t *testing.T) {
	var entries []fleet.DriveEntry
	wantFailed, wantGood, wantEval := 0, 0, 0
	for i := 0; i < 30; i++ {
		serial := fmt.Sprintf("drv-%04d", i)
		failing := i%3 == 0
		drop := 0.0
		if failing {
			drop = 25
		}
		entries = append(entries, fleet.DriveEntry{
			Serial:  serial,
			History: history(60, smart.RRER, 95, drop),
		})
		if serialHash(serial)%holdoutMod == 0 {
			wantEval++
		} else if failing {
			wantFailed++
		} else {
			wantGood++
		}
	}
	// Too little history, or an SSD (retraining covers HDDs only):
	// skipped, never labeled.
	entries = append(entries, fleet.DriveEntry{Serial: "short-1", History: history(10, smart.RRER, 95, 30)})
	entries = append(entries, fleet.DriveEntry{
		Serial:  "ssd-1",
		State:   monitor.DriveState{Tracked: true, Class: smart.SSD},
		History: history(60, smart.RRER, 95, 25),
	})

	h, err := Harvest(stateWith(entries...))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Failed) != wantFailed || len(h.Good) != wantGood || len(h.Eval) != wantEval {
		t.Fatalf("cohorts = %d failed / %d good / %d eval, want %d/%d/%d",
			len(h.Failed), len(h.Good), len(h.Eval), wantFailed, wantGood, wantEval)
	}
	if h.Skipped != 2 {
		t.Fatalf("Skipped = %d, want 2", h.Skipped)
	}
	for _, e := range h.Eval {
		// Every eval drive's label must match its construction.
		var i int
		fmt.Sscanf(e.Serial, "drv-%d", &i)
		if want := i%3 == 0; e.Failing != want {
			t.Errorf("eval drive %s labeled failing=%v, want %v", e.Serial, e.Failing, want)
		}
	}

	// Determinism: the same telemetry harvests to the same fingerprint;
	// any label-relevant change moves it.
	h2, err := Harvest(stateWith(entries...))
	if err != nil {
		t.Fatal(err)
	}
	if h.Fingerprint != h2.Fingerprint {
		t.Fatalf("fingerprints differ across identical harvests: %s vs %s", h.Fingerprint, h2.Fingerprint)
	}
	entries[0].History = history(61, smart.RRER, 95, 25)
	h3, err := Harvest(stateWith(entries...))
	if err != nil {
		t.Fatal(err)
	}
	if h3.Fingerprint == h.Fingerprint {
		t.Fatal("fingerprint unchanged after a drive's history changed")
	}
}

// scorePredictor maps one health attribute's normalized value straight
// to the degradation score, making eval outcomes easy to stage.
type scorePredictor struct{}

func (scorePredictor) Predict(x []float64) float64 { return x[smart.RRER] }

func evalNormalizer() *smart.Normalizer {
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

func evalModels() []monitor.GroupModel {
	return []monitor.GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: scorePredictor{},
	}}
}

func evalSet() monitor.ModelSet {
	return monitor.ModelSet{Models: evalModels(), Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: evalNormalizer()}}
}

// flatDrive builds an eval drive whose RRER sits at a constant score:
// negative scores degrade past Warning, positive ones stay healthy.
func flatDrive(serial string, failing bool, score float64) EvalDrive {
	recs := make([]smart.Record, 30)
	for i := range recs {
		var v smart.Values
		v[smart.RRER] = score
		recs[i] = smart.Record{Hour: i, Values: v}
	}
	return EvalDrive{Serial: serial, Failing: failing, Records: recs}
}

func TestEvaluateScoring(t *testing.T) {
	eval := []EvalDrive{
		flatDrive("tp-1", true, -0.9),  // failing, flagged: TP
		flatDrive("tp-2", true, -0.9),  // TP
		flatDrive("fn-1", true, 0.9),   // failing, missed: FN
		flatDrive("fp-1", false, -0.9), // healthy, flagged: FP
		flatDrive("tn-1", false, 0.9),  // healthy, clean
		flatDrive("tn-2", false, 0.9),
	}
	sc, flags, err := Evaluate(evalSet(), monitor.Config{Smoothing: 1}, eval, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.TruePositives != 2 || sc.FalsePositives != 1 || sc.FalseNegatives != 1 {
		t.Fatalf("confusion = TP %d / FP %d / FN %d, want 2/1/1",
			sc.TruePositives, sc.FalsePositives, sc.FalseNegatives)
	}
	if sc.Flagged != 3 || sc.EvalDrives != 6 {
		t.Fatalf("Flagged/EvalDrives = %d/%d, want 3/6", sc.Flagged, sc.EvalDrives)
	}
	wantP, wantR := 2.0/3.0, 2.0/3.0
	wantF1 := 2 * wantP * wantR / (wantP + wantR)
	if sc.Precision != wantP || sc.Recall != wantR || sc.F1 != wantF1 {
		t.Fatalf("P/R/F1 = %.3f/%.3f/%.3f, want %.3f/%.3f/%.3f",
			sc.Precision, sc.Recall, sc.F1, wantP, wantR, wantF1)
	}
	wantFlags := []bool{true, true, false, true, false, false}
	for i, f := range flags {
		if f != wantFlags[i] {
			t.Errorf("flags[%d] (%s) = %v, want %v", i, eval[i].Serial, f, wantFlags[i])
		}
	}
	// Empty cohort: a zero score, no error.
	sc, flags, err = Evaluate(evalSet(), monitor.Config{}, nil, 2)
	if err != nil || sc.EvalDrives != 0 || flags != nil {
		t.Fatalf("empty eval = %+v, %v, %v", sc, flags, err)
	}
}

func TestRetrainOnceSkipsSmallCohort(t *testing.T) {
	// A store with a handful of drives: the cycle must report a skipped
	// promotion (cohort too small), not an error, and never call Promote.
	store, err := fleet.New(evalModels(), evalNormalizer(), fleet.Config{Shards: 2, HistoryHours: 100})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		serial := fmt.Sprintf("tiny-%d", d)
		for h := 0; h < 30; h++ {
			var v smart.Values
			v[smart.RRER] = 0.9
			store.Ingest(serial, smart.Record{Hour: h, Values: v})
		}
	}
	r := &Retrainer{
		Store: store,
		Cfg:   Config{Core: core.Config{Seed: 1}},
		Promote: func(*persist.ModelArtifact) error {
			t.Fatal("Promote called for a skipped cycle")
			return nil
		},
	}
	res, err := r.RetrainOnce(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatal("undersized cohort was promoted")
	}
	if res.Reason == "" || res.ServingVersion != 1 || res.CandidateVersion != 2 {
		t.Fatalf("skipped cycle result = %+v", res)
	}
}

// TestRetrainOnceMixedFleet: a mixed HDD+SSD store retrains its HDD
// population. The harvest leaves the SSDs out, both sets are evaluated
// whole, and the promotion replaces the HDD models only: afterwards the
// store serves the same SSD models and normalizer as before.
func TestRetrainOnceMixedFleet(t *testing.T) {
	ds, err := synth.GenerateMixed(synth.DefaultMixedFleet(synth.ScaleSmall).WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := core.CharacterizeMixed(ds, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	set, err := monitor.SetOf(mc.ByClass[:]...)
	if err != nil {
		t.Fatal(err)
	}
	store, err := fleet.FromSet(set, fleet.Config{Shards: 4, HistoryHours: 400})
	if err != nil {
		t.Fatal(err)
	}
	ssdDrives := 0
	for _, p := range append(append([]*smart.Profile(nil), ds.Failed...), ds.Good...) {
		serial := fmt.Sprintf("%v-%v-%05d", p.Class, p.Failed, p.DriveID)
		obs := make([]fleet.Observation, len(p.Records))
		for i, rec := range p.Records {
			obs[i] = fleet.Observation{Serial: serial, Class: p.Class, Record: rec}
		}
		store.IngestBatch(obs)
		if p.Class == smart.SSD {
			ssdDrives++
		}
	}
	before := store.ModelSet()
	r := &Retrainer{
		Store:   store,
		Cfg:     Config{Core: core.Config{Seed: 1}},
		Promote: func(art *persist.ModelArtifact) error { return store.SwapModels(art.Set()) },
	}
	res, err := r.RetrainOnce(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.SkippedDrives < ssdDrives {
		t.Fatalf("cycle = %+v; want a promotion that skipped the %d SSDs", res, ssdDrives)
	}
	after := store.ModelSet()
	if after.Version != 2 || after.Norms[smart.SSD] != before.Norms[smart.SSD] || after.Norms[smart.HDD] == before.Norms[smart.HDD] {
		t.Fatalf("after promotion: version %d; want version 2 with a new HDD and the old SSD normalizer", after.Version)
	}
	classModels := func(set monitor.ModelSet, c smart.DeviceClass) []monitor.GroupModel {
		var out []monitor.GroupModel
		for _, m := range set.Models {
			if m.Class == c {
				out = append(out, m)
			}
		}
		return out
	}
	if got, want := classModels(after, smart.SSD), classModels(before, smart.SSD); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("SSD models after promotion = %+v, want %+v", got, want)
	}
	if len(classModels(after, smart.HDD)) == 0 {
		t.Fatal("promotion left no HDD models")
	}
}
