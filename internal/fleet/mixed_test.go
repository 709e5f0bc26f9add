package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"disksig/internal/monitor"
	"disksig/internal/smart"
)

// invPredictor inverts the RRER score so the SSD model disagrees with
// the HDD model on every record: any observation routed to the wrong
// class's models flips its alert stream and fails the invariance checks.
type invPredictor struct{}

func (invPredictor) Predict(x []float64) float64 { return -x[smart.RRER] }

func mixedSet() monitor.ModelSet {
	hdd := testModels()[0]
	ssd := hdd
	ssd.Group = 2
	ssd.Class = smart.SSD
	ssd.Predictor = invPredictor{}
	return monitor.ModelSet{
		Models: []monitor.GroupModel{hdd, ssd},
		Norms:  [smart.NumClasses]*smart.Normalizer{smart.HDD: testNormalizer(), smart.SSD: testNormalizer()},
	}
}

// stripDriveIDs zeroes the per-shard internal drive IDs, which are not
// meaningful to callers and legitimately differ across shard layouts.
func stripDriveIDs(alerts []Alert) []Alert {
	out := append([]Alert(nil), alerts...)
	for i := range out {
		out[i].DriveID = 0
	}
	return out
}

func mixedTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := FromSet(mixedSet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mixedStream interleaves degrading HDD drives, degrading SSD drives
// (scores inverted to match the inverted model), SSD cliff drives that
// stay healthy until a final sudden drop, and a class-mismatch
// observation that must be quarantined — one stream covering every
// class-aware ledger path.
func mixedStream(drives, hours int) []Observation {
	var obs []Observation
	for h := 0; h < hours; h++ {
		ramp := 1 - 2*float64(h)/float64(hours-1)
		for d := 0; d < drives; d++ {
			switch {
			case d%3 == 0:
				obs = append(obs, Observation{
					Serial: fmt.Sprintf("HDD%04d", d),
					Record: record(h, ramp),
				})
			case d%3 == 1:
				obs = append(obs, Observation{
					Serial: fmt.Sprintf("SSD%04d", d), Class: smart.SSD,
					Record: record(h, -ramp),
				})
			default:
				// Cliff SSD: flat healthy plateau, sudden death at the end.
				score := -0.9
				if h == hours-1 {
					score = 0.9
				}
				obs = append(obs, Observation{
					Serial: fmt.Sprintf("SSD%04d", d), Class: smart.SSD,
					Record: record(h, score),
				})
			}
		}
	}
	// An HDD drive reporting as SSD mid-stream: quarantined, not scored.
	obs = append(obs, Observation{Serial: "HDD0000", Class: smart.SSD, Record: record(hours, 0)})
	return obs
}

// TestMixedIngestShardWorkerInvariance extends the store's determinism
// guarantee to heterogeneous fleets: identical state and identical
// alert stream regardless of shard count or batch fan-out.
func TestMixedIngestShardWorkerInvariance(t *testing.T) {
	stream := mixedStream(30, 16)
	run := func(cfg Config) (*State, []Alert, int) {
		s := mixedTestStore(t, cfg)
		var alerts []Alert
		quarantined := 0
		for i := 0; i < len(stream); i += 100 {
			end := i + 100
			if end > len(stream) {
				end = len(stream)
			}
			res := s.IngestBatch(stream[i:end])
			alerts = append(alerts, res.Alerts...)
			quarantined += res.Quality.RowsQuarantined
		}
		return canonicalState(s.ExportState()), stripDriveIDs(alerts), quarantined
	}
	stA, alA, qA := run(Config{Shards: 2, Workers: 1, Monitor: monitor.Config{Smoothing: 1}})
	stB, alB, qB := run(Config{Shards: 32, Workers: 8, Monitor: monitor.Config{Smoothing: 1}})
	if !reflect.DeepEqual(stA, stB) {
		t.Error("mixed fleet state differs across shard/worker configs")
	}
	if !reflect.DeepEqual(alA, alB) {
		t.Errorf("alert streams differ: %d vs %d alerts", len(alA), len(alB))
	}
	if qA != qB || qA == 0 {
		t.Errorf("quarantine counts = %d vs %d, want equal and nonzero (class mismatch)", qA, qB)
	}
	// The stream must actually have exercised both classes' alerting.
	var hddAlerts, ssdAlerts int
	for _, a := range alA {
		if a.Class == smart.SSD {
			ssdAlerts++
		} else {
			hddAlerts++
		}
	}
	if hddAlerts == 0 || ssdAlerts == 0 {
		t.Fatalf("alert stream covers %d HDD / %d SSD alerts, want both nonzero", hddAlerts, ssdAlerts)
	}
}

// TestMixedSnapshotRestorePreservesClassModels round-trips a mixed
// fleet through ExportState/Restore at a different shard count and
// verifies the second half of the stream behaves identically — per-class
// models, the SSD normalizer and per-drive class tags all survive.
func TestMixedSnapshotRestorePreservesClassModels(t *testing.T) {
	stream := mixedStream(30, 16)
	half := len(stream) / 2
	cfg := Config{Shards: 8, Workers: 4, Monitor: monitor.Config{Smoothing: 1}}
	src := mixedTestStore(t, cfg)
	src.IngestBatch(stream[:half])

	st := src.ExportState()
	if st.SSDNorm == nil || !st.SSDNorm.Fitted() {
		t.Fatal("exported state lost the SSD normalizer")
	}
	classes := map[smart.DeviceClass]int{}
	for _, d := range st.Drives {
		classes[d.State.Class]++
	}
	if classes[smart.HDD] == 0 || classes[smart.SSD] == 0 {
		t.Fatalf("exported drive classes = %v, want both present", classes)
	}

	got, err := Restore(st, Config{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelVersion() != src.ModelVersion() {
		t.Errorf("model version %d after restore, want %d", got.ModelVersion(), src.ModelVersion())
	}
	ra := src.IngestBatch(stream[half:])
	rb := got.IngestBatch(stream[half:])
	ra.Quality.StripDiagnostics()
	rb.Quality.StripDiagnostics()
	ra.Alerts = stripDriveIDs(ra.Alerts)
	rb.Alerts = stripDriveIDs(rb.Alerts)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("post-restore mixed batch diverges from original store")
	}
	if !reflect.DeepEqual(canonicalState(src.ExportState()), canonicalState(got.ExportState())) {
		t.Fatal("final mixed states differ after restore")
	}
}

// TestSSDCliffCriticalInOneBatch pins sudden death at the batch layer:
// an SSD that falls off the cliff inside a single IngestBatch must
// surface a Critical alert in that same batch's result — not on some
// later poll, after the drive is already gone.
func TestSSDCliffCriticalInOneBatch(t *testing.T) {
	s := mixedTestStore(t, Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}})
	var obs []Observation
	for h := 0; h < 6; h++ {
		obs = append(obs, Observation{Serial: "SSD-CLIFF", Class: smart.SSD, Record: record(h, -0.9)})
	}
	obs = append(obs, Observation{Serial: "SSD-CLIFF", Class: smart.SSD, Record: record(6, 0.85)})
	res := s.IngestBatch(obs)
	if len(res.Alerts) != 1 {
		t.Fatalf("batch raised %d alerts, want exactly the cliff alert: %+v", len(res.Alerts), res.Alerts)
	}
	a := res.Alerts[0]
	if a.Serial != "SSD-CLIFF" || a.Class != smart.SSD {
		t.Errorf("alert identity = %s/%v, want SSD-CLIFF/ssd", a.Serial, a.Class)
	}
	if a.Severity != monitor.Critical {
		t.Errorf("cliff severity = %v, want straight to Critical", a.Severity)
	}
	if a.Hour != 6 {
		t.Errorf("cliff alert at hour %d, want 6", a.Hour)
	}
}
