package persist

import (
	"os"
	"path/filepath"
	"testing"

	"disksig/internal/fleet"
)

// FuzzRestore feeds arbitrary bytes to the snapshot and WAL decoders
// through the full Open+Restore path. The invariant: a corrupt state
// directory may fail the restore with an error, or recover with the
// corruption quarantined — it must never panic.
func FuzzRestore(f *testing.F) {
	// Seed with real files so the fuzzer starts from the actual formats.
	seedDir := f.TempDir()
	store, err := fleet.New(testModels(), testNormalizer(), fleet.Config{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range dirtyBatches(5, 6, 1000) {
		store.IngestBatch(b)
	}
	m, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	obs := []fleet.Observation{{Serial: "SN0001", Record: record(99, 0.5)}}
	if _, _, err := m.LogBatch(obs, func() fleet.BatchResult { return store.IngestBatch(obs) }); err != nil {
		f.Fatal(err)
	}
	if _, err := m.Snapshot(store); err != nil {
		f.Fatal(err)
	}
	if _, _, err := m.LogBatch(obs, func() fleet.BatchResult { return store.IngestBatch(obs) }); err != nil {
		f.Fatal(err)
	}
	m.Close()
	snapBytes, err := os.ReadFile(filepath.Join(seedDir, "snapshot.bin"))
	if err != nil {
		f.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(seedDir, "wal.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapBytes, walBytes)
	f.Add(snapBytes[:len(snapBytes)/2], walBytes[:len(walBytes)-3]) // torn both
	f.Add([]byte{}, []byte{})
	f.Add(snapBytes, []byte("DSKWAL\x00\x01garbage-after-magic"))

	f.Fuzz(func(t *testing.T, snap, wal []byte) {
		dir := t.TempDir()
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.bin"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if len(wal) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "wal.bin"), wal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m, err := Open(dir)
		if err != nil {
			return
		}
		defer m.Close()
		st, rec, err := m.Restore(fleet.Config{Shards: 2})
		if err != nil {
			return
		}
		// A successful restore must hand back a usable store whose
		// recovery summary renders.
		_ = rec.String()
		st.Tracked()
		extra := []fleet.Observation{{Serial: "POST", Record: record(1000, 0.5)}}
		if _, _, err := m.LogBatch(extra, func() fleet.BatchResult { return st.IngestBatch(extra) }); err != nil {
			t.Fatalf("append after successful restore failed: %v", err)
		}
	})
}

// FuzzDecodeBootstrap feeds arbitrary bytes to the bootstrap image
// decoder, which reads images that arrive from the network: at a
// follower's bootstrap and at a node's shard-handoff commit. The
// invariant: a corrupt image is refused with an error, never a panic,
// and an image that decodes restores into a store or is refused by
// fleet.Restore with an error.
func FuzzDecodeBootstrap(f *testing.F) {
	store, err := fleet.New(testModels(), testNormalizer(), fleet.Config{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range dirtyBatches(5, 6, 1000) {
		store.IngestBatch(b)
	}
	img, err := EncodeBootstrap(store.ExportState(), 3, StartPosition(1))
	if err != nil {
		f.Fatal(err)
	}
	pinned, err := os.ReadFile(pinnedBootstrap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(pinned)
	f.Add(img[:len(img)/2])
	f.Add(img[:bootFixedLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		st, _, _, err := DecodeBootstrap(body)
		if err != nil {
			return
		}
		if s, err := fleet.Restore(st, fleet.Config{Shards: 2}); err == nil {
			s.Tracked()
		}
	})
}
