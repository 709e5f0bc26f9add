package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"disksig/internal/fleet"
)

// The files under testdata/ pin the three sealed containers. They were
// written by writeSnapshot, SaveModels and EncodeBootstrap from the
// fixed inputs below, before the three formats shared one codec. gob
// writes maps in random order, so the pin is on what the files decode
// to, not on their bytes. A deliberate format change adds a new file
// beside these; it never re-records them.
const (
	pinnedSnapshot  = "testdata/snapshot-v1.bin"
	pinnedModels    = "testdata/models-v1.bin"
	pinnedBootstrap = "testdata/bootstrap-v1.bin"

	pinnedWALEpoch     = 7
	pinnedModelVersion = 3
	pinnedTerm         = 5
)

var pinnedPosition = Position{Epoch: 2, Offset: 123}

// pinnedState rebuilds the fleet state the pinned snapshot and
// bootstrap image hold.
func pinnedState(t *testing.T) *fleet.State {
	t.Helper()
	store := testStore(t, fleet.Config{Shards: 2})
	for _, b := range dirtyBatches(12, 5, 40) {
		store.IngestBatch(b)
	}
	return store.ExportState()
}

// loadModelsFile reads a models.bin image through LoadModels, which
// takes a state directory.
func loadModelsFile(t *testing.T, data []byte) (*ModelArtifact, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(ModelsPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadModels(dir)
}

// readSnapshotFile reads a snapshot.bin image through readSnapshot.
func readSnapshotFile(t *testing.T, data []byte) (*fleet.State, snapshotHeader, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), snapshotName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return readSnapshot(path)
}

func readPinned(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPinnedContainersDecode(t *testing.T) {
	want := pinnedState(t)

	t.Run("snapshot", func(t *testing.T) {
		st, hdr, err := readSnapshotFile(t, readPinned(t, pinnedSnapshot))
		if err != nil {
			t.Fatal(err)
		}
		if hdr.version != 1 || hdr.walEpoch != pinnedWALEpoch {
			t.Fatalf("header: version %d, WAL epoch %d; want 1 and %d", hdr.version, hdr.walEpoch, pinnedWALEpoch)
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatal("decoded snapshot differs from the rebuilt state")
		}
	})

	t.Run("models", func(t *testing.T) {
		data := readPinned(t, pinnedModels)
		if v := binary.LittleEndian.Uint32(data[8:12]); v != 1 {
			t.Fatalf("header: file version %d, want 1", v)
		}
		if v := binary.LittleEndian.Uint64(data[12:20]); v != pinnedModelVersion {
			t.Fatalf("header: model version %d, want %d", v, pinnedModelVersion)
		}
		art, err := loadModelsFile(t, data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(art, testArtifact(pinnedModelVersion)) {
			t.Fatalf("decoded artifact = %+v, want %+v", art, testArtifact(pinnedModelVersion))
		}
	})

	t.Run("bootstrap", func(t *testing.T) {
		st, term, pos, err := DecodeBootstrap(readPinned(t, pinnedBootstrap))
		if err != nil {
			t.Fatal(err)
		}
		if term != pinnedTerm || pos != pinnedPosition {
			t.Fatalf("header: term %d, position %s; want %d and %s", term, pos, pinnedTerm, pinnedPosition)
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatal("decoded bootstrap image differs from the rebuilt state")
		}
	})
}

// TestContainerByteFlips flips the first and the last byte of each
// region of each pinned container — magic, fixed header, payload
// length, payload and CRC — and requires every reader to refuse the
// result with an error.
func TestContainerByteFlips(t *testing.T) {
	containers := []struct {
		name     string
		path     string
		fixedLen int
		read     func(t *testing.T, data []byte) error
	}{
		{"snapshot", pinnedSnapshot, 12, func(t *testing.T, data []byte) error {
			_, _, err := readSnapshotFile(t, data)
			return err
		}},
		{"models", pinnedModels, 12, func(t *testing.T, data []byte) error {
			_, err := loadModelsFile(t, data)
			return err
		}},
		{"bootstrap", pinnedBootstrap, 24, func(_ *testing.T, data []byte) error {
			_, _, _, err := DecodeBootstrap(data)
			return err
		}},
	}
	for _, c := range containers {
		pristine := readPinned(t, c.path)
		if err := c.read(t, pristine); err != nil {
			t.Fatalf("%s: pristine file: %v", c.name, err)
		}
		head := 8 + c.fixedLen + 8
		regions := []struct {
			name     string
			from, to int
		}{
			{"magic", 0, 8},
			{"header", 8, 8 + c.fixedLen},
			{"length", 8 + c.fixedLen, head},
			{"payload", head, len(pristine) - 4},
			{"crc", len(pristine) - 4, len(pristine)},
		}
		for _, r := range regions {
			for _, at := range []int{r.from, r.to - 1} {
				t.Run(fmt.Sprintf("%s/%s/byte%d", c.name, r.name, at), func(t *testing.T) {
					data := append([]byte(nil), pristine...)
					data[at] ^= 0xff
					if err := c.read(t, data); err == nil {
						t.Fatal("read succeeded")
					}
				})
			}
		}
	}
}

// TestCommitFile pins the crash-safe commit: a successful commit
// replaces the file, leaves no temporary file behind and fsyncs the
// directory; a failed one leaves the old file and removes its
// temporary file.
func TestCommitFile(t *testing.T) {
	dir := t.TempDir()
	syncs := dirSyncs.Load()
	if err := commitFile(dir, "f.bin", "f.tmp", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := commitFile(dir, "f.bin", "f.tmp", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "f.bin")); err != nil || string(got) != "two" {
		t.Fatalf("committed file = %q, %v; want \"two\"", got, err)
	}
	if dirSyncs.Load()-syncs != 2 {
		t.Fatalf("two commits made %d directory fsyncs, want 2", dirSyncs.Load()-syncs)
	}
	// A non-empty directory under the target name makes the rename fail.
	if err := os.MkdirAll(filepath.Join(dir, "d.bin", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := commitFile(dir, "d.bin", "d.tmp", []byte("three")); err == nil {
		t.Fatal("commit over a non-empty directory succeeded")
	}
	for _, tmp := range []string{"f.tmp", "d.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
			t.Errorf("%s left behind: %v", tmp, err)
		}
	}
}
