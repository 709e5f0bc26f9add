package fleet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"disksig/internal/core"
	"disksig/internal/monitor"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

// shiftPredictor scores records by RRER plus a constant offset — a
// "retrained" model whose scores differ from rampPredictor's, so tests
// can tell which version scored a record.
type shiftPredictor struct{ off float64 }

func (p shiftPredictor) Predict(x []float64) float64 { return x[smart.RRER] + p.off }

func swappedSet(off float64, version int) monitor.ModelSet {
	return monitor.ModelSet{
		Version: version,
		Models: []monitor.GroupModel{{
			Group:     1,
			Type:      core.Logical,
			Form:      regression.FormQuadratic,
			WindowD:   12,
			Predictor: shiftPredictor{off: off},
		}},
		Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: testNormalizer()},
	}
}

func TestSwapModelsVersioning(t *testing.T) {
	s := testStore(t, Config{Shards: 4})
	if v := s.ModelVersion(); v != 1 {
		t.Fatalf("fresh store ModelVersion = %d, want 1", v)
	}
	// Same or older version: refused, store unchanged.
	for _, v := range []int{0, 1} {
		if err := s.SwapModels(swappedSet(0.5, v)); err == nil {
			t.Fatalf("swap to version %d accepted, want refusal", v)
		}
	}
	if v := s.ModelVersion(); v != 1 {
		t.Fatalf("ModelVersion = %d after refused swaps, want 1", v)
	}
	if err := s.SwapModels(swappedSet(0.5, 2)); err != nil {
		t.Fatal(err)
	}
	if v := s.ModelVersion(); v != 2 {
		t.Fatalf("ModelVersion = %d after swap, want 2", v)
	}
	set := s.ModelSet()
	if len(set.Models) != 1 || set.Version != 2 {
		t.Fatalf("ModelSet() = %d models at version %d, want 1 at version 2", len(set.Models), set.Version)
	}
	if _, ok := set.Models[0].Predictor.(shiftPredictor); !ok {
		t.Fatalf("ModelSet().Models[0].Predictor = %T, want the swapped-in shiftPredictor", set.Models[0].Predictor)
	}
	// Versions need not be consecutive — only increasing.
	if err := s.SwapModels(swappedSet(0.25, 7)); err != nil {
		t.Fatal(err)
	}
	if v := s.ModelVersion(); v != 7 {
		t.Fatalf("ModelVersion = %d, want 7", v)
	}
}

func TestSwapPreservesStatePerDrive(t *testing.T) {
	s := testStore(t, Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}, HistoryHours: 100})
	s.Ingest("SER-1", record(0, 0.9))
	if a := s.Ingest("SER-1", record(1, -0.3)); a == nil || a.ModelVersion != 1 || a.Severity != monitor.Warning {
		t.Fatalf("pre-swap alert = %+v, want version-1 warning", a)
	}
	before, _ := s.Drive("SER-1")

	// The swap itself re-scores nothing: severity and last-hour carry
	// over as-is.
	if err := s.SwapModels(swappedSet(0.25, 2)); err != nil {
		t.Fatal(err)
	}
	after, ok := s.Drive("SER-1")
	if !ok {
		t.Fatal("drive lost across swap")
	}
	if after.Severity != before.Severity || after.LastHour != before.LastHour {
		t.Fatalf("drive state across swap = %+v, want severity/hour of %+v", after, before)
	}
	// History survives the swap: the retrainer harvests across versions.
	st := s.ExportState()
	if len(st.Drives) != 1 || len(st.Drives[0].History) != 2 {
		t.Fatalf("exported history = %+v, want the 2 kept records", st.Drives)
	}
	// An old record is still stale after the swap (duplicate/stale
	// decisions are model-version-independent).
	if a := s.Ingest("SER-1", record(0, -0.9)); a != nil {
		t.Fatalf("stale record alerted after swap: %+v", a)
	}
	// A further escalation under the new models alerts, tagged with the
	// new version (score -0.9 + 0.25 = -0.65, past the critical
	// threshold).
	a := s.Ingest("SER-1", record(2, -0.9))
	if a == nil || a.ModelVersion != 2 || a.Severity != monitor.Critical {
		t.Fatalf("post-swap alert = %+v, want version-2 critical", a)
	}
}

// TestSwapKeepsOtherClasses: swapping in a one-class set replaces that
// class only, and CheckSwap refuses exactly what SwapModels refuses,
// leaving the store as it was.
func TestSwapKeepsOtherClasses(t *testing.T) {
	s := mixedTestStore(t, Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}})
	s.Ingest("HDD-1", record(0, 0.9))
	s.IngestBatch([]Observation{{Serial: "SSD-1", Class: smart.SSD, Record: record(0, -0.9)}})
	before := s.ModelSet()

	ssdOnly := swappedSet(0.5, 2)
	ssdOnly.Models[0].Class = smart.SSD
	for _, refused := range []monitor.ModelSet{swappedSet(0.5, 1), ssdOnly} {
		if err := s.CheckSwap(refused); err == nil {
			t.Fatalf("CheckSwap accepted %+v", refused)
		}
		if err := s.SwapModels(refused); err == nil {
			t.Fatalf("SwapModels accepted %+v", refused)
		}
	}
	if !reflect.DeepEqual(s.ModelSet(), before) {
		t.Fatal("refused swaps changed the serving set")
	}

	next := swappedSet(0.5, 2)
	if err := s.CheckSwap(next); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModels(next); err != nil {
		t.Fatal(err)
	}
	after := s.ModelSet()
	if after.Version != 2 || len(after.Models) != 2 || after.Norms[smart.HDD] != next.Norms[smart.HDD] {
		t.Fatalf("after the swap: %+v", after)
	}
	if !reflect.DeepEqual(after.Models[1], before.Models[1]) || after.Norms[smart.SSD] != before.Norms[smart.SSD] {
		t.Fatal("an HDD-only swap replaced the SSD models or normalizer")
	}
	// The SSD drive keeps scoring under its own class's model.
	res := s.IngestBatch([]Observation{{Serial: "SSD-1", Class: smart.SSD, Record: record(1, 0.9)}})
	if len(res.Alerts) != 1 || res.Alerts[0].Class != smart.SSD || res.Alerts[0].ModelVersion != 2 {
		t.Fatalf("SSD record after an HDD-only swap: %+v", res)
	}
}

// TestSwapBarrierUnderLoad hammers IngestBatch from several goroutines
// while model swaps land in between: the barrier must give every batch
// exactly one model version — the batch's own alerts all tagged with it
// — at every shard layout.
func TestSwapBarrierUnderLoad(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := testStore(t, Config{Shards: shards, Workers: 4, Monitor: monitor.Config{Smoothing: 1}})
			// Each batch uses fresh serials ramping to failure, so every
			// batch raises alerts no matter when it runs.
			batch := func(tag int) []Observation {
				var obs []Observation
				for d := 0; d < 20; d++ {
					serial := fmt.Sprintf("S%03d-%04d", tag, d)
					for h := 0; h < 4; h++ {
						obs = append(obs, Observation{Serial: serial, Record: record(h, 0.9-float64(h))})
					}
				}
				return obs
			}

			const ingesters, batches = 4, 25
			results := make(chan BatchResult, ingesters*batches)
			var wg sync.WaitGroup
			for g := 0; g < ingesters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < batches; i++ {
						results <- s.IngestBatch(batch(g*batches + i))
					}
				}(g)
			}
			// Swaps race the ingest load; each lands between two batches,
			// never inside one.
			for v := 2; v <= 12; v++ {
				if err := s.SwapModels(swappedSet(float64(v)/100, v)); err != nil {
					t.Error(err)
				}
			}
			wg.Wait()
			close(results)

			versions := map[int]int{}
			for res := range results {
				if res.ModelVersion < 1 || res.ModelVersion > 12 {
					t.Fatalf("batch scored by impossible version %d", res.ModelVersion)
				}
				versions[res.ModelVersion]++
				if len(res.Alerts) == 0 {
					t.Fatal("a batch of fresh degrading drives raised no alerts")
				}
				for _, a := range res.Alerts {
					if a.ModelVersion != res.ModelVersion {
						t.Fatalf("alert version %d inside a version-%d batch: the barrier leaked a swap mid-batch",
							a.ModelVersion, res.ModelVersion)
					}
				}
			}
			if v := s.ModelVersion(); v != 12 {
				t.Fatalf("final ModelVersion = %d, want 12", v)
			}
		})
	}
}

// TestRestoreAfterSwap proves a swapped store round-trips through
// export/restore at a different shard count: same drives, same promoted
// version, bit-identical state.
func TestRestoreAfterSwap(t *testing.T) {
	cfg := Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}, HistoryHours: 50}
	s := testStore(t, cfg)
	s.IngestBatch(buildStream(30, 10))
	if err := s.SwapModels(swappedSet(0.5, 3)); err != nil {
		t.Fatal(err)
	}
	// Post-swap traffic shapes state under the new version.
	for d := 0; d < 30; d++ {
		s.Ingest(fmt.Sprintf("SER-%04d", d), record(11, 0.4))
	}

	st := s.ExportState()
	if st.ModelVersion != 3 {
		t.Fatalf("exported ModelVersion = %d, want 3", st.ModelVersion)
	}
	restored, err := Restore(st, Config{Shards: 16, Workers: 2, HistoryHours: 50})
	if err != nil {
		t.Fatal(err)
	}
	if v := restored.ModelVersion(); v != 3 {
		t.Fatalf("restored ModelVersion = %d, want 3", v)
	}
	if !reflect.DeepEqual(st, restored.ExportState()) {
		t.Fatal("restored state differs from exported state")
	}
	// The restored store keeps scoring under the promoted models, and a
	// swap to a version at or below the restored one is still refused.
	if err := restored.SwapModels(swappedSet(0.1, 3)); err == nil {
		t.Fatal("restored store accepted a swap to its own version")
	}
	if a := restored.Ingest("SER-0001", record(12, -3)); a == nil || a.ModelVersion != 3 {
		t.Fatalf("restored store alert = %+v, want version-3 alert", a)
	}
}
