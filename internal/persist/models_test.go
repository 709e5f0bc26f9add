package persist

import (
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/smart"
)

func testArtifact(version int) *ModelArtifact {
	return &ModelArtifact{
		Version:        version,
		Fingerprint:    "deadbeefcafef00d",
		TrainedMaxHour: 480,
		FailedDrives:   12,
		GoodDrives:     88,
		Models:         testModels(),
		Norm:           testNormalizer(),
		Notes:          []string{"group 2: window clamped to 24h"},
	}
}

func TestModelArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testArtifact(3)
	size, err := SaveModels(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(ModelsPath(dir)); err != nil || fi.Size() != size {
		t.Fatalf("artifact on disk = %v bytes (%v), SaveModels reported %d", fi.Size(), err, size)
	}
	got, err := LoadModels(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-tripped artifact = %+v, want %+v", got, want)
	}
	// A newer artifact replaces the old one atomically.
	if _, err := SaveModels(dir, testArtifact(4)); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadModels(dir); err != nil || got.Version != 4 {
		t.Fatalf("after re-save: version %d (%v), want 4", got.Version, err)
	}
	if _, err := os.Stat(filepath.Join(dir, modelsTmp)); !os.IsNotExist(err) {
		t.Error("models.tmp left behind after commit")
	}
	// Nil artifact is an input error, not a file write.
	if _, err := SaveModels(dir, nil); err == nil {
		t.Error("SaveModels(nil) succeeded")
	}
}

func TestLoadModelsMissing(t *testing.T) {
	_, err := LoadModels(t.TempDir())
	if !os.IsNotExist(err) {
		t.Fatalf("LoadModels on an empty dir = %v, want os.IsNotExist", err)
	}
}

func TestLoadModelsCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, err := SaveModels(dir, testArtifact(2)); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(ModelsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(ModelsPath(dir), pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Flip one payload byte: the checksum must catch it.
	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := os.WriteFile(ModelsPath(dir), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(dir); err == nil || os.IsNotExist(err) {
		t.Fatalf("flipped byte loaded: %v", err)
	}

	// Truncation: the size check must catch it before decoding.
	restore()
	if err := os.WriteFile(ModelsPath(dir), pristine[:len(pristine)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(dir); err == nil || os.IsNotExist(err) {
		t.Fatalf("truncated artifact loaded: %v", err)
	}

	// Wrong magic: refused outright.
	restore()
	bad := append([]byte(nil), pristine...)
	bad[0] = 'X'
	if err := os.WriteFile(ModelsPath(dir), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(dir); err == nil || os.IsNotExist(err) {
		t.Fatalf("bad magic loaded: %v", err)
	}

	// Corruption errors must never look like "no artifact yet": the boot
	// path treats os.IsNotExist as benign and everything else as fatal.
	restore()
	if _, err := LoadModels(dir); err != nil {
		t.Fatalf("pristine artifact failed to load after restore: %v", err)
	}
}

// TestSnapshotWithSwap covers the crash-consistent promotion path: the
// swap runs inside the snapshot gate, so the committed snapshot carries
// the new version and a restore comes back on it.
func TestSnapshotWithSwap(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	store := testStore(t, fleet.Config{Shards: 4})
	for h := 0; h < 5; h++ {
		store.Ingest("SER-1", record(h, 0.9))
	}
	next := []fleet.Observation{{Serial: "SER-1", Record: record(5, 0.9)}}

	if _, err := mgr.SnapshotWith(store, func() error {
		return store.SwapModels(testArtifact(2).Set())
	}); err != nil {
		t.Fatal(err)
	}
	// Post-promotion traffic lands in the new epoch's WAL.
	if _, _, err := mgr.LogBatch(next, func() fleet.BatchResult {
		return store.IngestBatch(next)
	}); err != nil {
		t.Fatal(err)
	}

	restored, _, err := mgr.Restore(fleet.Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v := restored.ModelVersion(); v != 2 {
		t.Fatalf("restored ModelVersion = %d, want 2", v)
	}
	if !reflect.DeepEqual(store.ExportState(), restored.ExportState()) {
		t.Fatal("restored state differs from live state after promotion")
	}

	// A failing mutate aborts the snapshot: nothing newer is committed,
	// and a restore still sees the promoted version from before.
	if _, err := mgr.SnapshotWith(store, func() error {
		return store.SwapModels(testArtifact(2).Set()) // refused: not newer
	}); err == nil {
		t.Fatal("SnapshotWith committed despite a failing mutate")
	}
	restored2, _, err := mgr.Restore(fleet.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v := restored2.ModelVersion(); v != 2 {
		t.Fatalf("after aborted snapshot, restored ModelVersion = %d, want 2", v)
	}
}

// TestPromote covers the promotion protocol: the artifact is committed
// to models.bin and the swapped store is snapshotted, so a restore
// comes back on the promoted version. A refused swap commits no
// snapshot.
func TestPromote(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	store := testStore(t, fleet.Config{Shards: 2})
	store.Ingest("SER-1", record(0, 0.9))

	if err := mgr.Promote(store, testArtifact(2)); err != nil {
		t.Fatal(err)
	}
	if art, err := LoadModels(dir); err != nil || art.Version != 2 {
		t.Fatalf("models.bin after Promote: %+v, %v", art, err)
	}
	if st := mgr.Stats(); st.Snapshots != 1 || store.ModelVersion() != 2 {
		t.Fatalf("after Promote: %d snapshots, serving v%d; want 1 and v2", st.Snapshots, store.ModelVersion())
	}
	if err := mgr.Promote(store, testArtifact(2)); err == nil {
		t.Fatal("promoting a version that is not newer succeeded")
	}
	if st := mgr.Stats(); st.Snapshots != 1 {
		t.Fatalf("a refused promotion committed a snapshot (%d snapshots)", st.Snapshots)
	}
	restored, _, err := mgr.Restore(fleet.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v := restored.ModelVersion(); v != 2 {
		t.Fatalf("restored ModelVersion = %d, want 2", v)
	}
}

// shiftPredictor scores records by one attribute's value plus an offset:
// a retrained model whose verdicts differ from scalePredictor's, so a
// record scored under the wrong version shows in the drive's state.
type shiftPredictor struct {
	Attr int
	Off  float64
}

func (p shiftPredictor) Predict(x []float64) float64 { return x[p.Attr] + p.Off }

func init() { gob.Register(shiftPredictor{}) }

// shiftedArtifact is a version-v artifact whose model scores 0.4 lower
// than testModels' and whose training fingerprint is fp.
func shiftedArtifact(v int, fp string) *ModelArtifact {
	art := testArtifact(v)
	art.Fingerprint = fp
	art.Models = testModels()
	art.Models[0].Predictor = shiftPredictor{Attr: int(smart.RRER), Off: -0.4}
	return art
}

// TestPromoteRefusedCommitsNothing: a promotion the store refuses — a
// version that is not newer, or a set that fails the store's
// validation — leaves models.bin holding the promoted artifact and adds
// no snapshot. Two retrain cycles can race to the same candidate
// version, so the first case is reachable in production.
func TestPromoteRefusedCommitsNothing(t *testing.T) {
	dir := t.TempDir()
	mgr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	store := testStore(t, fleet.Config{Shards: 2})
	store.Ingest("SER-1", record(0, 0.9))
	if err := mgr.Promote(store, shiftedArtifact(2, "first")); err != nil {
		t.Fatal(err)
	}

	invalid := shiftedArtifact(3, "invalid")
	invalid.Norm = nil
	for _, art := range []*ModelArtifact{shiftedArtifact(2, "second"), invalid} {
		if err := mgr.Promote(store, art); err == nil {
			t.Fatalf("promotion of %s v%d succeeded", art.Fingerprint, art.Version)
		}
		if got, err := LoadModels(dir); err != nil || got.Fingerprint != "first" {
			t.Fatalf("after refusing %s: models.bin holds %+v (%v), want the first artifact", art.Fingerprint, got, err)
		}
		if st := mgr.Stats(); st.Snapshots != 1 || store.ModelVersion() != 2 {
			t.Fatalf("after refusing %s: %d snapshots, serving v%d; want 1 and v2", art.Fingerprint, st.Snapshots, store.ModelVersion())
		}
	}
}

// TestRestoreFinishesInterruptedPromotion: a crash between Promote's two
// commits leaves a v1 snapshot and a v2 models.bin. Restore swaps v2 in
// under the snapshot gate, so the batches served next land in a new WAL
// epoch, and a second crash replays them under v2: the store comes back
// exactly as it was served.
func TestRestoreFinishesInterruptedPromotion(t *testing.T) {
	dir := t.TempDir()
	cfg := fleet.Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}}
	batches := dirtyBatches(20, 16, 20)
	mgr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t, cfg)
	for _, b := range batches[:8] {
		store.IngestBatch(b)
	}
	if _, err := mgr.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveModels(dir, shiftedArtifact(2, "promoted")); err != nil {
		t.Fatal(err)
	}
	mgr.Close() // the crash: the swap and its snapshot never happened

	mgr1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	served, rec, err := mgr1.Restore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReappliedVersion != 2 || served.ModelVersion() != 2 {
		t.Fatalf("first boot: re-applied v%d, serving v%d; want v2 for both", rec.ReappliedVersion, served.ModelVersion())
	}
	for _, b := range batches[8:16] {
		if _, _, err := mgr1.LogBatch(b, func() fleet.BatchResult { return served.IngestBatch(b) }); err != nil {
			t.Fatal(err)
		}
	}
	want := canonical(served.ExportState())
	mgr1.Close() // the second crash

	mgr2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	got, rec2, err := mgr2.Restore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ReappliedVersion != 0 || rec2.WALBatches != 8 {
		t.Fatalf("second boot: re-applied v%d, replayed %d batches; want none and 8", rec2.ReappliedVersion, rec2.WALBatches)
	}
	if !reflect.DeepEqual(want, canonical(got.ExportState())) {
		t.Fatal("the second restore differs from the served state")
	}
}
