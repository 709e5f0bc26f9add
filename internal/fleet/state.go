package fleet

import (
	"fmt"
	"reflect"
	"sort"

	"disksig/internal/monitor"
	"disksig/internal/parallel"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// DriveEntry is one drive's serialized state, keyed by serial number so
// the snapshot is independent of shard layout and internal drive IDs.
type DriveEntry struct {
	Serial string
	State  monitor.DriveState
	// History holds the drive's newest kept records (ascending hours),
	// the retraining telemetry retained under Config.HistoryHours. Nil
	// when history retention is off.
	History []smart.Record
}

// State is the serializable whole-fleet state: everything needed to
// rebuild a Store without retraining — trained group models, the fleet
// normalizer, the monitor thresholds, and every drive's monitor state
// and quality-ledger contribution. Drives are sorted by serial, so two
// stores with identical fleet state export identical States regardless
// of their shard or worker counts.
type State struct {
	// MonitorCfg is the threshold/smoothing configuration the state was
	// built under; restore reuses it (a different smoothing cap would
	// invalidate the serialized score windows).
	MonitorCfg monitor.Config
	// Models are the trained per-group scoring models; each carries its
	// device class (zero value HDD for pre-class snapshots).
	Models []monitor.GroupModel
	// Norm is the HDD-partition normalizer fitted during training.
	Norm *smart.Normalizer
	// SSDNorm is the SSD-partition normalizer; nil for a pure-HDD fleet,
	// which keeps the encoding of pre-class snapshots unchanged (gob
	// omits nil pointer fields).
	SSDNorm *smart.Normalizer
	// ModelVersion is the serving model-set version the state was
	// exported under. Old snapshots decode as 0; Restore maps that to 1
	// (the version every freshly trained store starts at).
	ModelVersion int
	// Drives holds per-drive state sorted by ascending serial.
	Drives []DriveEntry
	// Quality is the merged fleet ledger, kept as a restore-time
	// checksum: the per-drive ledgers must sum back to it. A filtered
	// export leaves it zero; ImportEntries does not read it.
	Quality quality.Report
	// MaxHour/HasHour preserve the fleet's newest observed hour, which
	// can exceed every tracked drive's LastHour (a quarantined record
	// still advances telemetry time).
	MaxHour int
	HasHour bool
}

// ExportState deep-copies the store's full state for serialization,
// collecting shards in parallel. Each shard is locked while it is
// copied, but the export is not a fleet-wide atomic cut: the caller
// must quiesce ingestion (the persistence layer's snapshot gate does)
// if a consistent point-in-time image is required. Given serials, it
// exports only those of them the store holds: the source side of a
// shard handoff.
func (s *Store) ExportState(serials ...string) *State {
	var only map[string]bool
	if len(serials) > 0 {
		only = make(map[string]bool, len(serials))
		for _, serial := range serials {
			only[serial] = true
		}
	}
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	st := &State{
		MonitorCfg:   s.cfg.Monitor,
		Models:       s.set.Models,
		Norm:         s.set.Norms[smart.HDD],
		SSDNorm:      s.set.Norms[smart.SSD],
		ModelVersion: s.set.Version,
	}
	perShard := parallel.Map(s.cfg.Workers, len(s.shards), func(si int) []DriveEntry {
		sh := s.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		entries := make([]DriveEntry, 0, len(sh.ids))
		for serial, id := range sh.ids {
			if only != nil && !only[serial] {
				continue
			}
			if ds, ok := sh.mon.ExportDrive(id); ok {
				e := DriveEntry{Serial: serial, State: ds}
				if sh.histCap > 0 && len(sh.history[id]) > 0 {
					e.History = append([]smart.Record(nil), sh.history[id]...)
				}
				entries = append(entries, e)
			}
		}
		return entries
	})
	for _, entries := range perShard {
		st.Drives = append(st.Drives, entries...)
	}
	sortDriveEntries(st.Drives)
	if only == nil {
		st.Quality = s.Quality()
	}
	st.MaxHour, st.HasHour = s.MaxHour()
	return st
}

// Serials returns the serials of the drives ExportState exports,
// sorted, without copying their state.
func (s *Store) Serials() []string {
	out := []string{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for serial := range sh.ids {
			out = append(out, serial)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// ModelSet returns the model set the state was exported under.
func (st *State) ModelSet() monitor.ModelSet {
	return monitor.ModelSet{
		Version: st.ModelVersion,
		Models:  st.Models,
		Norms:   [smart.NumClasses]*smart.Normalizer{smart.HDD: st.Norm, smart.SSD: st.SSDNorm},
	}
}

func sortDriveEntries(entries []DriveEntry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Serial < entries[j].Serial })
}

// install gives an exported drive an ID and installs its monitor state
// and retraining history there, the history truncated to the shard's
// cap — HistoryHours is a deployment knob, so a restore into a smaller
// cap keeps the newest records and a cap of 0 keeps none. The history
// and the state are both checked before anything is installed, so a
// refused drive leaves the shard as it was.
func (sh *shard) install(serial string, ds monitor.DriveState, hist []smart.Record) error {
	for i := 1; i < len(hist); i++ {
		if hist[i].Hour <= hist[i-1].Hour {
			return fmt.Errorf("drive %s history hours not strictly increasing at index %d", serial, i)
		}
	}
	id := sh.assign(serial)
	if err := sh.mon.ImportDrive(id, ds); err != nil {
		sh.release(id)
		return fmt.Errorf("drive %s: %w", serial, err)
	}
	if sh.histCap > 0 && len(hist) > 0 {
		if len(hist) > sh.histCap {
			hist = hist[len(hist)-sh.histCap:]
		}
		sh.history[id] = append([]smart.Record(nil), hist...)
	}
	if ds.Tracked && ds.LastHour > sh.maxHour {
		sh.maxHour = ds.LastHour
	}
	return nil
}

// Restore rebuilds a store from an exported State. The shard count,
// TTL and worker bound come from cfg (they are deployment knobs, free
// to change across restarts); the monitor configuration and trained
// models come from the state. Restoration validates as it goes — a
// corrupted state yields an error, never a panic — and finishes by
// checking that the per-drive ledgers sum back to the state's merged
// quality report. The restored store's behavior is bit-identical to
// the original's at any shard/worker count: same statuses, same alert
// decisions, same quality accounting.
func Restore(st *State, cfg Config) (*Store, error) {
	if st == nil {
		return nil, fmt.Errorf("fleet: restoring nil state")
	}
	cfg.Monitor = st.MonitorCfg
	store, err := FromSet(st.ModelSet(), cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: restoring: %w", err)
	}
	perShard := make([][]DriveEntry, len(store.shards))
	seen := make(map[string]bool, len(st.Drives))
	for _, e := range st.Drives {
		if e.Serial == "" {
			return nil, fmt.Errorf("fleet: restoring: empty serial in state")
		}
		if seen[e.Serial] {
			return nil, fmt.Errorf("fleet: restoring: duplicate serial %q in state", e.Serial)
		}
		seen[e.Serial] = true
		si := store.shardIndex(e.Serial)
		perShard[si] = append(perShard[si], e)
	}
	err = parallel.ForEachErr(cfg.Workers, len(store.shards), func(si int) error {
		sh := store.shards[si]
		sh.mon.Reserve(len(perShard[si]))
		for _, e := range perShard[si] {
			if err := sh.install(e.Serial, e.State, e.History); err != nil {
				return fmt.Errorf("fleet: restoring: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st.HasHour {
		// The fleet-wide newest hour can exceed every drive's LastHour
		// (quarantined records advance it); park the excess on shard 0 so
		// MaxHour() — and therefore EvictStale — sees the original value.
		if sh0 := store.shards[0]; st.MaxHour > sh0.maxHour {
			sh0.maxHour = st.MaxHour
		}
	} else if len(st.Drives) > 0 {
		return nil, fmt.Errorf("fleet: restoring: state has %d drives but no max hour", len(st.Drives))
	}
	if got := store.Quality(); !got.CountersEqual(&st.Quality) {
		return nil, fmt.Errorf("fleet: restoring: per-drive ledgers do not sum to the state's quality report (corrupt state)")
	}
	return store, nil
}

// ImportEntries merges an exported State's drives into a live store —
// the receive side of a shard handoff. Unlike Restore it does not build
// a fresh store: the receiving store keeps its own model set and
// monitor configuration, and each drive's quality-ledger contribution,
// severity, last hour and retraining history land exactly as exported.
// The drive's score windows land too only when the state's model set
// (version, models and normalizers) equals the store's: nodes retrain
// and promote independently, so two nodes can serve different sets,
// even under one version number, and scores from different sets must
// never be median-filtered together. Otherwise the windows reset, as
// SwapModels resets them, and the drive re-enters its smoothing ramp
// under the store's models. The state's MaxHour surplus is absorbed too
// (a quarantined record can advance telemetry time past every surviving
// drive's LastHour, and eviction must not rejuvenate on a move).
//
// A serial that is already tracked is an error: the import aborts at the
// offending entry, leaving earlier entries imported (the merge is
// per-shard, not transactional). Callers must keep moving serials
// quiescent for the copy — the router's handoff gate does — so a
// conflict means an operator error, not a race to paper over.
func (s *Store) ImportEntries(st *State) (int, error) {
	if st == nil {
		return 0, fmt.Errorf("fleet: importing nil state")
	}
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	if len(st.Drives) > 0 && !st.HasHour {
		return 0, fmt.Errorf("fleet: importing: state has %d drives but no max hour", len(st.Drives))
	}
	sameSet := reflect.DeepEqual(st.ModelSet(), s.set)
	perShard := make([][]DriveEntry, len(s.shards))
	seen := make(map[string]bool, len(st.Drives))
	for _, e := range st.Drives {
		if e.Serial == "" {
			return 0, fmt.Errorf("fleet: importing: empty serial in state")
		}
		if seen[e.Serial] {
			return 0, fmt.Errorf("fleet: importing: duplicate serial %q in state", e.Serial)
		}
		seen[e.Serial] = true
		si := s.shardIndex(e.Serial)
		perShard[si] = append(perShard[si], e)
	}
	imported := 0
	for si, entries := range perShard {
		if len(entries) == 0 {
			continue
		}
		sh := s.shards[si]
		sh.mu.Lock()
		// New drives take the freed IDs first, then IDs past the last.
		sh.mon.Reserve(len(sh.serials) + max(0, len(entries)-len(sh.free)))
		for _, e := range entries {
			if _, exists := sh.ids[e.Serial]; exists {
				sh.mu.Unlock()
				return imported, fmt.Errorf("fleet: importing: serial %q already tracked", e.Serial)
			}
			ds := e.State
			if ds.Tracked && !sameSet {
				ds.Recent = make([][]float64, len(s.set.Models))
			}
			if err := sh.install(e.Serial, ds, e.History); err != nil {
				sh.mu.Unlock()
				return imported, fmt.Errorf("fleet: importing: %w", err)
			}
			imported++
		}
		sh.mu.Unlock()
	}
	if st.HasHour {
		sh0 := s.shards[0]
		sh0.mu.Lock()
		if st.MaxHour > sh0.maxHour {
			sh0.maxHour = st.MaxHour
		}
		sh0.mu.Unlock()
	}
	return imported, nil
}
