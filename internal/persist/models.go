package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/smart"
)

// ModelArtifact is one versioned model set produced by a training or
// retraining run: everything a store needs to score records, plus the
// provenance that makes the run auditable and reproducible.
type ModelArtifact struct {
	// Version is the model-set version; promoted artifacts carry the
	// version the fleet swapped to.
	Version int
	// Fingerprint is the deterministic FNV-64a digest of the training
	// inputs (drive serials, hours, labels and the training config).
	// Two retrains over identical telemetry produce identical
	// fingerprints.
	Fingerprint string
	// TrainedMaxHour is the fleet telemetry hour the training snapshot
	// was taken at.
	TrainedMaxHour int
	// FailedDrives/GoodDrives are the harvested training cohort sizes.
	FailedDrives int
	GoodDrives   int
	// Models and Norm are the trained scoring models and normalizer.
	Models []monitor.GroupModel
	Norm   *smart.Normalizer
	// Notes carries training-quality caveats (e.g. clamped windows).
	Notes []string
}

// Set returns the artifact's model set. A retrained artifact carries
// HDD models only, so its set has the HDD normalizer alone.
func (art *ModelArtifact) Set() monitor.ModelSet {
	return monitor.ModelSet{
		Version: art.Version,
		Models:  art.Models,
		Norms:   [smart.NumClasses]*smart.Normalizer{smart.HDD: art.Norm},
	}
}

// models.bin is a sealed container (container.go) under the magic
// "DSKMODL\x01" with the fixed header
//
//	u32 file version (currently 1) | u64 model-set version
//
// and the gob-encoded *ModelArtifact as its payload. It is committed
// through models.tmp like a snapshot: a crash mid-write never corrupts
// the previous artifact.
var modelMagic = [8]byte{'D', 'S', 'K', 'M', 'O', 'D', 'L', 0x01}

const (
	modelFileVersion = 1
	modelFixedLen    = 12
	modelsName       = "models.bin"
	modelsTmp        = "models.tmp"
)

// ModelsPath returns the artifact path inside a state directory.
func ModelsPath(dir string) string { return filepath.Join(dir, modelsName) }

// SaveModels commits a model artifact atomically into the state
// directory, returning the file size.
func SaveModels(dir string, art *ModelArtifact) (int64, error) {
	if art == nil {
		return 0, fmt.Errorf("persist: saving nil model artifact")
	}
	var fixed [modelFixedLen]byte
	binary.LittleEndian.PutUint32(fixed[0:4], modelFileVersion)
	binary.LittleEndian.PutUint64(fixed[4:12], uint64(art.Version))
	data, err := seal(modelMagic, fixed[:], art)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("persist: creating state dir: %w", err)
	}
	if err := commitFile(dir, modelsName, modelsTmp, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// LoadModels reads, checksums and decodes the committed model artifact
// of a state directory. os.IsNotExist on the error distinguishes "no
// artifact yet" from corruption.
func LoadModels(dir string) (*ModelArtifact, error) {
	data, err := os.ReadFile(ModelsPath(dir))
	if err != nil {
		return nil, err
	}
	const what = "model artifact"
	fixed, _, err := sealedHeader(data, modelMagic, modelFixedLen, what)
	if err != nil {
		return nil, err
	}
	if err := checkFileVersion(fixed, modelFileVersion, what); err != nil {
		return nil, err
	}
	art := &ModelArtifact{}
	if _, err := unseal(data, modelMagic, modelFixedLen, what, art); err != nil {
		return nil, err
	}
	if hdrVer := binary.LittleEndian.Uint64(fixed[4:12]); art.Version <= 0 || uint64(art.Version) != hdrVer {
		return nil, fmt.Errorf("persist: model artifact header version %d disagrees with payload version %d", hdrVer, art.Version)
	}
	return art, nil
}

// Promote makes a retrained model set the store's serving one,
// crash-consistently. Everything runs inside SnapshotWith's exclusive
// gate: the store first decides whether it takes the set (CheckSwap),
// so a version that is not newer, or a set the store's validation
// rejects, commits nothing. Then the artifact is committed to
// models.bin, the store swaps, and the snapshot after the swap carries
// the promoted version, so no WAL frame crosses the swap. A crash
// between the two commits leaves models.bin one version ahead of the
// snapshot, and Restore finishes the promotion.
func (m *Manager) Promote(store *fleet.Store, art *ModelArtifact) error {
	set := art.Set()
	_, err := m.SnapshotWith(store, func() error {
		if err := store.CheckSwap(set); err != nil {
			return err
		}
		if _, err := SaveModels(m.dir, art); err != nil {
			return err
		}
		return store.SwapModels(set)
	})
	return err
}
