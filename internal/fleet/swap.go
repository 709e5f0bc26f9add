package fleet

import (
	"fmt"

	"disksig/internal/monitor"
)

// ModelVersion returns the version of the model set currently scoring
// the fleet. Versions start at 1 for a freshly trained store and
// increase by every promoted swap.
func (s *Store) ModelVersion() int {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	return s.set.Version
}

// ModelSet returns the model set currently scoring the fleet, version
// included, read under one hold of the swap barrier. Its model slice is
// a copy.
func (s *Store) ModelSet() monitor.ModelSet {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	set := s.set
	set.Models = append([]monitor.GroupModel(nil), set.Models...)
	return set
}

// SwapModels hot-swaps the serving model set atomically across all
// shards. It is the promotion step of the online-learning cycle: the
// swap barrier (held exclusively here, shared by every ingest) means no
// batch is ever scored by two versions — batches in flight drain first,
// batches arriving during the swap score entirely on the new version.
//
// The store serves ModelSet().With(next): each class next has models
// for is replaced, and every other class keeps its current models and
// normalizer. The online-learning cycle retrains the HDD population
// from its harvested history, and that promotion must not drop the SSD
// models (or vice versa).
//
// Per-drive monitor state migrates: severity, last hour, quality
// ledgers and retraining history survive, while the smoothing windows
// reset (scores from different model versions must never be median-
// filtered together). A drive therefore re-enters its smoothing ramp
// under the new models and alerts only on a further escalation, so a
// swap never re-alerts a stable fleet wholesale.
//
// The swap is refused when next's version is not newer than the
// serving one or the merged set fails validation, and it stages every
// shard before committing any of them: on error the store still serves
// the old version unchanged.
func (s *Store) SwapModels(next monitor.ModelSet) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	set, err := s.merge(next)
	if err != nil {
		return err
	}

	// Stage: build one replacement monitor per shard with every drive
	// migrated. Ingest is excluded by the barrier, but queries still
	// read shards, so each shard locks while its state is copied out.
	staged := make([]*monitor.Monitor, len(s.shards))
	for si, sh := range s.shards {
		mon, err := monitor.FromSet(set, s.cfg.Monitor)
		if err != nil {
			return fmt.Errorf("fleet: swap to version %d: building shard %d: %w", set.Version, si, err)
		}
		sh.mu.Lock()
		drives := sh.mon.ExportDrives()
		sh.mu.Unlock()
		top := -1
		for id := range drives {
			top = max(top, id)
		}
		mon.Reserve(top + 1)
		for id, ds := range drives {
			if ds.Tracked {
				// Reset the smoothing windows to one empty window per
				// new model; everything else carries over.
				ds.Recent = make([][]float64, len(set.Models))
			}
			if err := mon.ImportDrive(id, ds); err != nil {
				return fmt.Errorf("fleet: swap to version %d: migrating shard %d drive %d: %w", set.Version, si, id, err)
			}
		}
		staged[si] = mon
	}

	// Commit: infallible pointer swaps.
	for si, sh := range s.shards {
		sh.mu.Lock()
		sh.mon = staged[si]
		sh.mu.Unlock()
	}
	s.set = set
	return nil
}

// CheckSwap reports the refusal SwapModels(next) would return, without
// swapping: nil when next is newer than the serving set and the merged
// set passes validation. A caller that must commit next elsewhere
// before the swap (persist's Promote writes models.bin) asks first, so
// a refused set commits nothing.
func (s *Store) CheckSwap(next monitor.ModelSet) error {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	_, err := s.merge(next)
	return err
}

// merge returns the set that swapping in next serves, or why the swap
// is refused. The caller holds swapMu.
func (s *Store) merge(next monitor.ModelSet) (monitor.ModelSet, error) {
	if next.Version <= s.set.Version {
		return monitor.ModelSet{}, fmt.Errorf("fleet: swap to version %d refused: serving version %d is not older", next.Version, s.set.Version)
	}
	set := s.set.With(next)
	if _, err := monitor.FromSet(set, s.cfg.Monitor); err != nil {
		return monitor.ModelSet{}, fmt.Errorf("fleet: swap to version %d: %w", next.Version, err)
	}
	return set, nil
}
