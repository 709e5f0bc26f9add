package persist

import (
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/quality"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

// scalePredictor scores records by one attribute's value. Unlike the
// zero-field test predictors elsewhere, it has an exported field so gob
// can serialize it as an interface value inside fleet.State.
type scalePredictor struct{ Attr int }

func (p scalePredictor) Predict(x []float64) float64 { return x[p.Attr] }

func init() { gob.Register(scalePredictor{}) }

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

func testModels() []monitor.GroupModel {
	return []monitor.GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: scalePredictor{Attr: int(smart.RRER)},
	}}
}

func testStore(t *testing.T, cfg fleet.Config) *fleet.Store {
	t.Helper()
	s, err := fleet.New(testModels(), testNormalizer(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func record(hour int, score float64) smart.Record {
	var v smart.Values
	v[smart.RRER] = score
	return smart.Record{Hour: hour, Values: v}
}

func nonFiniteRecord(hour int) smart.Record {
	var v smart.Values
	v[smart.RRER] = math.NaN()
	return smart.Record{Hour: hour, Values: v}
}

// dirtyBatches builds deterministic batches mixing clean, duplicate,
// out-of-order and non-finite records.
func dirtyBatches(drives, hours, batch int) [][]fleet.Observation {
	var obs []fleet.Observation
	for h := 0; h < hours; h++ {
		for d := 0; d < drives; d++ {
			serial := fmt.Sprintf("SN%04d", d)
			score := 1 - 2*float64(h)/float64(hours-1)
			switch {
			case d%7 == 3 && h%5 == 2:
				obs = append(obs, fleet.Observation{Serial: serial, Record: nonFiniteRecord(h)})
			case d%5 == 1 && h%4 == 3:
				obs = append(obs, fleet.Observation{Serial: serial, Record: record(h-2, score)})
			case d%3 == 2 && h%6 == 1:
				obs = append(obs, fleet.Observation{Serial: serial, Record: record(h, score)})
				obs = append(obs, fleet.Observation{Serial: serial, Record: record(h, score-0.01)})
			default:
				obs = append(obs, fleet.Observation{Serial: serial, Record: record(h, score)})
			}
		}
	}
	var batches [][]fleet.Observation
	for len(obs) > 0 {
		n := batch
		if n > len(obs) {
			n = len(obs)
		}
		batches = append(batches, obs[:n])
		obs = obs[n:]
	}
	return batches
}

func canonical(st *fleet.State) *fleet.State {
	st.Quality.StripDiagnostics()
	return st
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := testStore(t, fleet.Config{Shards: 8, Workers: 4})
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.HasSnapshot() {
		t.Fatal("fresh dir claims a snapshot")
	}
	for _, b := range dirtyBatches(30, 10, 100) {
		if _, _, err := m.LogBatch(b, func() fleet.BatchResult { return store.IngestBatch(b) }); err != nil {
			t.Fatal(err)
		}
	}
	info, err := m.Snapshot(store)
	if err != nil {
		t.Fatal(err)
	}
	if info.Drives != 30 || info.Bytes <= 0 || info.Epoch != 1 {
		t.Fatalf("SnapshotInfo = %+v", info)
	}
	if !m.HasSnapshot() {
		t.Fatal("HasSnapshot = false after Snapshot")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	restored, rec, err := m2.Restore(fleet.Config{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotDrives != 30 || rec.WALBatches != 0 || rec.TornTail || rec.StaleWAL {
		t.Fatalf("Recovery = %+v", rec)
	}
	want := canonical(store.ExportState())
	got := canonical(restored.ExportState())
	if !reflect.DeepEqual(want, got) {
		t.Fatal("restored state differs from the original")
	}
}

func TestRestoreReplaysWALAfterKill(t *testing.T) {
	dir := t.TempDir()
	batches := dirtyBatches(25, 12, 40)
	half := len(batches) / 2
	killAt := len(batches) - 2 // the last batches arrive after the restart

	// Reference: uninterrupted ingestion of everything.
	ref := testStore(t, fleet.Config{Shards: 4, Workers: 2})
	var want []fleet.Alert
	for _, b := range batches {
		want = appendAlerts(want, ref.IngestBatch(b))
	}
	if len(want) == 0 {
		t.Fatal("uninterrupted run raised no alerts; the comparison is vacuous")
	}

	// Persisted run: snapshot mid-stream, keep logging, then "die"
	// without closing anything (appends are unbuffered, so abandoning
	// the manager leaves exactly what a kill would).
	store := testStore(t, fleet.Config{Shards: 4, Workers: 2})
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []fleet.Alert
	for i, b := range batches[:killAt] {
		res, _, err := m.LogBatch(b, func() fleet.BatchResult { return store.IngestBatch(b) })
		if err != nil {
			t.Fatal(err)
		}
		got = appendAlerts(got, res)
		if i == half {
			if _, err := m.Snapshot(store); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No m.Close(), no final Snapshot: the batches after the snapshot
	// live only in the WAL.
	killed := canonical(store.ExportState())

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	restored, rec, err := m2.Restore(fleet.Config{Shards: 16, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rec.WALBatches != killAt-half-1 {
		t.Fatalf("replayed %d WAL batches, want %d", rec.WALBatches, killAt-half-1)
	}
	if rec.TornTail || rec.StaleWAL {
		t.Fatalf("Recovery = %+v", rec)
	}
	if !reflect.DeepEqual(killed, canonical(restored.ExportState())) {
		t.Fatal("state restored from snapshot+WAL differs from the killed store's")
	}

	// The reopened WAL accepts the rest of the stream: the pre-kill and
	// post-restore alerts together must be the uninterrupted run's, in
	// order, and the final states must agree.
	for _, b := range batches[killAt:] {
		res, _, err := m2.LogBatch(b, func() fleet.BatchResult { return restored.IngestBatch(b) })
		if err != nil {
			t.Fatal(err)
		}
		got = appendAlerts(got, res)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("killed+restored run raised %d alerts, uninterrupted run %d, or their order differs", len(got), len(want))
	}
	if !reflect.DeepEqual(canonical(ref.ExportState()), canonical(restored.ExportState())) {
		t.Fatal("state after the restored replay differs from an uninterrupted run")
	}
}

// appendAlerts appends a batch's alerts without their drive IDs, which
// are shard-local and differ between shard layouts.
func appendAlerts(alerts []fleet.Alert, res fleet.BatchResult) []fleet.Alert {
	for _, a := range res.Alerts {
		a.DriveID = 0
		alerts = append(alerts, a)
	}
	return alerts
}

func TestRestoreQuarantinesTornTail(t *testing.T) {
	dir := t.TempDir()
	store := testStore(t, fleet.Config{Shards: 4})
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	good := []fleet.Observation{{Serial: "A", Record: record(1, 0.9)}}
	sacrificial := []fleet.Observation{{Serial: "B", Record: record(1, 0.9)}}
	if _, _, err := m.LogBatch(good, func() fleet.BatchResult { return store.IngestBatch(good) }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.LogBatch(sacrificial, func() fleet.BatchResult { return store.IngestBatch(sacrificial) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop a few bytes off the file.
	walPath := filepath.Join(dir, "wal.bin")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	restored, rec, err := m2.Restore(fleet.Config{Shards: 4})
	if err != nil {
		t.Fatalf("torn tail failed the restore: %v", err)
	}
	if !rec.TornTail {
		t.Fatal("TornTail = false for a truncated WAL")
	}
	if rec.DroppedBytes <= 0 {
		t.Fatalf("DroppedBytes = %d", rec.DroppedBytes)
	}
	if rec.Quality.Count(quality.TruncatedInput) != 1 {
		t.Fatalf("TruncatedInput = %d, want 1", rec.Quality.Count(quality.TruncatedInput))
	}
	if rec.WALBatches != 1 {
		t.Fatalf("replayed %d batches before the tear, want 1", rec.WALBatches)
	}
	if _, ok := restored.Drive("A"); !ok {
		t.Fatal("record before the tear lost")
	}
	if _, ok := restored.Drive("B"); ok {
		t.Fatal("torn record partially applied")
	}

	// The torn tail was truncated away: appends continue cleanly and a
	// third Open replays them all.
	extra := []fleet.Observation{{Serial: "C", Record: record(2, 0.9)}}
	if _, _, err := m2.LogBatch(extra, func() fleet.BatchResult { return restored.IngestBatch(extra) }); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	again, rec3, err := m3.Restore(fleet.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec3.TornTail || rec3.WALBatches != 2 {
		t.Fatalf("post-truncation recovery = %+v", rec3)
	}
	want := canonical(restored.ExportState())
	got := canonical(again.ExportState())
	if !reflect.DeepEqual(want, got) {
		t.Fatal("state after torn-tail truncation does not round trip")
	}
}

func TestRestoreDiscardsStaleWAL(t *testing.T) {
	dir := t.TempDir()
	store := testStore(t, fleet.Config{Shards: 4})
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	obs := []fleet.Observation{{Serial: "A", Record: record(1, 0.9)}}
	if _, _, err := m.LogBatch(obs, func() fleet.BatchResult { return store.IngestBatch(obs) }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between snapshot commit and WAL reset: put back a
	// pre-snapshot WAL (epoch 0) containing the already-snapshotted batch.
	f, err := createWAL(filepath.Join(dir, "wal.bin"), 0)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendWALRecord(nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	restored, rec, err := m2.Restore(fleet.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.StaleWAL {
		t.Fatal("StaleWAL = false for a pre-snapshot WAL")
	}
	if rec.WALBatches != 0 {
		t.Fatalf("stale WAL replayed %d batches — double-applied", rec.WALBatches)
	}
	// The batch must be applied exactly once (from the snapshot).
	if q := restored.Quality(); q.RowsRead != 1 {
		t.Fatalf("RowsRead = %d after stale-WAL restore, want 1", q.RowsRead)
	}
	want := canonical(store.ExportState())
	got := canonical(restored.ExportState())
	if !reflect.DeepEqual(want, got) {
		t.Fatal("stale-WAL restore diverged from the snapshotted state")
	}
}

func TestRestoreWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Even with WAL content, no snapshot means a cold start.
	obs := []fleet.Observation{{Serial: "A", Record: record(1, 0.9)}}
	store := testStore(t, fleet.Config{})
	if _, _, err := m.LogBatch(obs, func() fleet.BatchResult { return store.IngestBatch(obs) }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Restore(fleet.Config{}); err != ErrNoSnapshot {
		t.Fatalf("Restore = %v, want ErrNoSnapshot", err)
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	store := testStore(t, fleet.Config{Shards: 2})
	store.IngestBatch(dirtyBatches(10, 6, 1000)[0])
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	m.Close()

	path := filepath.Join(dir, "snapshot.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the checksum must catch it.
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, _, err := m2.Restore(fleet.Config{Shards: 2}); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
}

func TestOpenContinuesEpochAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store := testStore(t, fleet.Config{})
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Epoch; got != 0 {
		t.Fatalf("fresh epoch = %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Snapshot(store); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().Epoch; got != 3 {
		t.Fatalf("epoch after 3 snapshots = %d", got)
	}
	m.Close()
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Stats().Epoch; got != 3 {
		t.Fatalf("epoch after reopen = %d, want 3", got)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	obs := []fleet.Observation{
		{Serial: "", Record: record(0, 0)},
		{Serial: "SN-1", Record: record(-12345, 0.5)},
		{Serial: "unicode-序列", Record: record(math.MaxInt, -1)},
	}
	obs[1].Record.Values[0] = math.Inf(1)
	obs[2].Record.Values[3] = math.NaN()
	frame, err := appendWALRecord(nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := new(walDecoder).decode(frame[8:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("decoded %d observations, want %d", len(got), len(obs))
	}
	for i := range obs {
		if got[i].Serial != obs[i].Serial || got[i].Record.Hour != obs[i].Record.Hour {
			t.Fatalf("observation %d differs: %+v vs %+v", i, got[i], obs[i])
		}
		for a := range obs[i].Record.Values {
			w, g := obs[i].Record.Values[a], got[i].Record.Values[a]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("observation %d attr %d: %v vs %v (bits differ)", i, a, g, w)
			}
		}
	}
}

// TestWALRecordClassTail pins the mixed-fleet WAL shape: an all-HDD
// record encodes byte-identically to the pre-class format (no tail), a
// mixed record round-trips every class through its tail, and a tail
// naming an unknown class fails decode.
func TestWALRecordClassTail(t *testing.T) {
	hdd := []fleet.Observation{
		{Serial: "SN-1", Record: record(1, 0.5)},
		{Serial: "SN-2", Record: record(2, -0.5)},
	}
	frame, err := appendWALRecord(nil, hdd)
	if err != nil {
		t.Fatal(err)
	}
	// No class tail: 8-byte frame header + count varint + per-obs bytes.
	per := 1 + 4 + 1 + 8*int(smart.NumAttrs) // slen varint + serial + hour varint + values
	if want := 8 + 1 + len(hdd)*per; len(frame) != want {
		t.Fatalf("all-HDD record is %d bytes, want %d (class tail must be absent)", len(frame), want)
	}

	mixed := []fleet.Observation{
		{Serial: "SN-1", Record: record(1, 0.5)},
		{Serial: "SSD-1", Class: smart.SSD, Record: record(2, -0.5)},
		{Serial: "SN-3", Record: record(3, 0)},
	}
	frame, err = appendWALRecord(nil, mixed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := new(walDecoder).decode(frame[8:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(mixed) {
		t.Fatalf("decoded %d observations, want %d", len(got), len(mixed))
	}
	for i := range mixed {
		if got[i].Class != mixed[i].Class || got[i].Serial != mixed[i].Serial {
			t.Fatalf("observation %d: class %v serial %q, want %v %q",
				i, got[i].Class, got[i].Serial, mixed[i].Class, mixed[i].Serial)
		}
	}

	// An unknown class in the tail is corruption, not a new device type.
	bad := append([]byte(nil), frame[8:]...)
	bad[len(bad)-2] = 0x7f
	if _, err := new(walDecoder).decode(bad); err == nil {
		t.Fatal("decode accepted an unknown device class in the tail")
	}

	// An invalid class never encodes in the first place.
	if _, err := appendWALRecord(nil, []fleet.Observation{{Serial: "x", Class: smart.DeviceClass(9)}}); err == nil {
		t.Fatal("encode accepted an invalid device class")
	}
}

func BenchmarkSnapshot(b *testing.B) {
	dir := b.TempDir()
	store, err := fleet.New(testModels(), testNormalizer(), fleet.Config{Shards: 16, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range dirtyBatches(2000, 24, 5000) {
		store.IngestBatch(batch)
	}
	m, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Snapshot(store); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestore(b *testing.B) {
	dir := b.TempDir()
	store, err := fleet.New(testModels(), testNormalizer(), fleet.Config{Shards: 16, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range dirtyBatches(2000, 24, 5000) {
		store.IngestBatch(batch)
	}
	m, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Snapshot(store); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Restore(fleet.Config{Shards: 16, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
