package monitor

import (
	"fmt"
	"testing"

	"disksig/internal/core"
	"disksig/internal/dataset"
	"disksig/internal/predict"
	"disksig/internal/quality"
	"disksig/internal/regression"
	"disksig/internal/signature"
	"disksig/internal/smart"
	"disksig/internal/tree"
)

// negPredictor inverts the RRER score, so the same record yields
// opposite degradation under the two classes — any cross-class scoring
// leak flips a test verdict.
type negPredictor struct{}

func (negPredictor) Predict(x []float64) float64 { return -x[smart.RRER] }

// mixedTestSet returns one HDD and one SSD model with deliberately
// opposite predictors, plus identity-ish per-class normalizers.
func mixedTestSet() ModelSet {
	hdd := testModels()[0]
	ssd := hdd
	ssd.Class = smart.SSD
	ssd.Type = core.BadSector
	ssd.Predictor = negPredictor{}
	return ModelSet{
		Models: []GroupModel{hdd, ssd},
		Norms:  [smart.NumClasses]*smart.Normalizer{smart.HDD: testNormalizer(), smart.SSD: testNormalizer()},
	}
}

func TestIngestClassRoutesToClassModels(t *testing.T) {
	m, err := FromSet(mixedTestSet(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	// RRER 0.9 is healthy under the HDD model but deeply degraded under
	// the inverted SSD model: the record must be scored only by its own
	// class's models.
	if a, kept := m.IngestClass(1, smart.HDD, record(0, 0.9)); !kept || a != nil {
		t.Errorf("HDD healthy record: alert=%v kept=%v", a, kept)
	}
	a, kept := m.IngestClass(2, smart.SSD, record(0, 0.9))
	if !kept || a == nil || a.Severity != Critical {
		t.Fatalf("SSD record scored by wrong class: alert=%v kept=%v", a, kept)
	}
	if a.Class != smart.SSD || a.Type != core.BadSector {
		t.Errorf("alert carries class %v type %v, want ssd/bad-sector", a.Class, a.Type)
	}
}

func TestIngestClassUnservedQuarantined(t *testing.T) {
	// A monitor built with HDD models only must quarantine SSD records
	// rather than score flash wear against rotational signatures.
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, kept := m.IngestClass(1, smart.SSD, record(0, 0.5))
	if kept || a != nil {
		t.Fatalf("unserved class ingested: alert=%v kept=%v", a, kept)
	}
	rep := m.Quality()
	if rep.ByField["device_class"] == 0 {
		t.Errorf("quarantine not attributed to device_class: %v", rep.ByField)
	}
	if rep.RowsQuarantined != 1 {
		t.Errorf("quarantined = %d, want 1", rep.RowsQuarantined)
	}
}

func TestIngestClassFlipFlopQuarantined(t *testing.T) {
	m, err := FromSet(mixedTestSet(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, kept := m.IngestClass(7, smart.HDD, record(0, 0.9)); !kept {
		t.Fatal("first record not kept")
	}
	// The same drive reporting as SSD one hour later is corrupt
	// telemetry: a serial cannot change hardware mid-stream.
	a, kept := m.IngestClass(7, smart.SSD, record(1, 0.9))
	if kept || a != nil {
		t.Fatalf("class flip-flop ingested: alert=%v kept=%v", a, kept)
	}
	if m.Quality().ByKind[quality.BadField] == 0 {
		t.Error("flip-flop not quarantined as bad field")
	}
	// The drive's state is untouched: still HDD, still scoring.
	if _, kept := m.IngestClass(7, smart.HDD, record(2, 0.8)); !kept {
		t.Error("drive stopped scoring after rejected flip-flop")
	}
}

// TestSSDCliffStraightToCritical pins the sudden-death dynamic: a cliff
// failure jumps from healthy to Critical on a single record, without
// ever passing through Watch or Warning — the alert a mixed fleet's
// pager must treat as "already dead", not "worth watching".
func TestSSDCliffStraightToCritical(t *testing.T) {
	// Smoothing 1 so the cliff record is not averaged away; the SSD
	// model scores -RRER, so a healthy drive reports RRER -0.9.
	m, err := FromSet(mixedTestSet(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 5; h++ {
		if a, kept := m.IngestClass(3, smart.SSD, record(h, -0.9)); !kept || a != nil {
			t.Fatalf("healthy plateau hour %d: alert=%v kept=%v", h, a, kept)
		}
	}
	a, kept := m.IngestClass(3, smart.SSD, record(5, 0.85))
	if !kept || a == nil {
		t.Fatalf("cliff record: alert=%v kept=%v", a, kept)
	}
	if a.Severity != Critical {
		t.Fatalf("cliff escalated to %v, want straight to Critical", a.Severity)
	}
	if a.Hour != 5 {
		t.Errorf("critical at hour %d, want 5", a.Hour)
	}
}

// stubCharacterization is a characterization of one class's population
// with one stump-predicted group per number in groups.
func stubCharacterization(t *testing.T, norm *smart.Normalizer, groups ...int) *core.Characterization {
	t.Helper()
	stump, err := tree.Train([][]float64{{0}, {1}, {0}, {1}}, []float64{0, 1, 0, 1}, tree.Config{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch := &core.Characterization{Dataset: &dataset.Dataset{Norm: norm}}
	for _, g := range groups {
		ch.Results = append(ch.Results, &core.GroupResult{
			Group:      &core.Group{Number: g, Type: core.Logical},
			Summary:    &signature.GroupSummary{MajorityForm: regression.FormLinear, MedianD: 48},
			Prediction: &predict.DegradationResult{Tree: stump},
		})
	}
	return ch
}

// TestSetOfClassStamping: SetOf stamps each characterization's models
// with the class of its position, orders them by class then group, and
// takes each class's normalizer; FromSet then rejects a set whose class
// lacks its normalizer, an empty set and an invalid class.
func TestSetOfClassStamping(t *testing.T) {
	hddNorm, ssdNorm := testNormalizer(), testNormalizer()
	set, err := SetOf(stubCharacterization(t, hddNorm, 1, 2), stubCharacterization(t, ssdNorm, 1))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range set.Models {
		got = append(got, fmt.Sprintf("%v/%d", m.Class, m.Group))
	}
	if want := "[hdd/1 hdd/2 ssd/1]"; fmt.Sprint(got) != want {
		t.Fatalf("models = %v, want %s", got, want)
	}
	if set.Norms[smart.HDD] != hddNorm || set.Norms[smart.SSD] != ssdNorm || set.Version != 0 {
		t.Fatalf("set norms/version = %v/%d, want each class's normalizer and version 0", set.Norms, set.Version)
	}
	if _, err := FromSet(set, Config{}); err != nil {
		t.Fatal(err)
	}
	// A class with no population keeps no models and no normalizer.
	ssdOnly, err := SetOf(nil, stubCharacterization(t, ssdNorm, 3))
	if err != nil || len(ssdOnly.Models) != 1 || ssdOnly.Models[0].Class != smart.SSD || ssdOnly.Norms[smart.HDD] != nil {
		t.Fatalf("SSD-only set = %+v, %v", ssdOnly, err)
	}
	if _, err := SetOf(nil, nil, nil); err == nil {
		t.Error("SetOf accepted more characterizations than device classes")
	}

	mixed := mixedTestSet()
	noSSDNorm := mixed
	noSSDNorm.Norms[smart.SSD] = nil
	if _, err := FromSet(noSSDNorm, Config{}); err == nil {
		t.Error("SSD model accepted without SSD normalizer")
	}
	if _, err := FromSet(ModelSet{Norms: mixed.Norms}, Config{}); err == nil {
		t.Error("empty model set accepted")
	}
	bad := mixed
	bad.Models = append([]GroupModel{}, mixed.Models...)
	bad.Models[1].Class = smart.DeviceClass(9)
	if _, err := FromSet(bad, Config{}); err == nil {
		t.Error("invalid model class accepted")
	}
}

// TestModelSetWith: installing a one-class set replaces that class's
// models and normalizer, keeps the other class's after them, takes the
// new version, and shares no model slice with either input.
func TestModelSetWith(t *testing.T) {
	serving := mixedTestSet()
	serving.Version = 3
	hdd := testModels()[0]
	hdd.Group, hdd.Predictor = 5, negPredictor{}
	next := ModelSet{
		Version: 4,
		Models:  []GroupModel{hdd},
		Norms:   [smart.NumClasses]*smart.Normalizer{smart.HDD: testNormalizer(), smart.SSD: testNormalizer()},
	}
	got := serving.With(next)
	if got.Version != 4 || len(got.Models) != 2 {
		t.Fatalf("With = version %d, %d models; want version 4, 2 models", got.Version, len(got.Models))
	}
	if got.Models[0].Group != 5 || got.Models[1].Class != smart.SSD || got.Models[1].Type != core.BadSector {
		t.Fatalf("With models = %+v, want the new HDD group then the serving SSD group", got.Models)
	}
	if got.Norms[smart.HDD] != next.Norms[smart.HDD] || got.Norms[smart.SSD] != serving.Norms[smart.SSD] {
		t.Fatal("With took a normalizer from the wrong set")
	}
	got.Models[0].Group = 9
	if next.Models[0].Group != 5 || serving.Models[0].Group != 1 {
		t.Fatal("With's result shares a model slice with an input")
	}
	// A set that brings every class replaces the serving set whole.
	if whole := serving.With(mixedTestSet()); len(whole.Models) != 2 || whole.Models[0].Group != 1 {
		t.Fatalf("whole replacement = %+v", whole.Models)
	}
}
