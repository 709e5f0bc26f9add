// Package persist is the durability layer of the serving subsystem: a
// versioned, checksummed binary snapshot of the full fleet state plus
// an append-only write-ahead log (WAL) of ingested batches. Together
// they give diskserve warm restarts — a restore rebuilds the exact
// fleet state (drive histories, severities, quality accounting, trained
// models and normalizer) of the process that wrote them, without
// retraining and without replaying the whole telemetry history.
//
// # Protocol
//
// Every ingested batch is appended to the WAL before it is applied to
// the store; a snapshot captures the store's full state and then resets
// the WAL. Crash-consistency across that reset uses epochs: the WAL
// header carries an epoch number, the snapshot records the epoch of the
// WAL that starts after it, and a snapshot is committed by an atomic
// rename. On restore, the WAL is replayed only when its epoch matches
// the snapshot's — a WAL from an earlier epoch is already covered by
// the snapshot (the crash hit between snapshot rename and WAL reset)
// and is discarded, never double-applied. Replay is not idempotent
// (duplicate-hour records move quality counters), so this matters.
//
// A torn record at the WAL tail — the tail being written when the
// process died — fails its checksum, is counted as quarantined input
// through the standard quality taxonomy, and replay stops there: a torn
// tail is data loss of the records that never finished writing, not a
// failed restore.
package persist

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/quality"
	"disksig/internal/tree"
)

func init() {
	// Predictors live inside fleet.State as interface values; the
	// concrete trained types must be registered for gob.
	gob.Register(&tree.Tree{})
	gob.Register(&tree.Forest{})
}

// ErrNoSnapshot reports that the state directory holds no snapshot to
// restore from (a cold start).
var ErrNoSnapshot = errors.New("persist: no snapshot in state directory")

const (
	snapshotName = "snapshot.bin"
	snapshotTmp  = "snapshot.tmp"
	walName      = "wal.bin"
)

// Manager owns one state directory: the current snapshot, the live WAL,
// and the epoch protocol between them. All methods are safe for
// concurrent use; LogBatch calls proceed concurrently with each other
// and are excluded only while a snapshot captures the store.
type Manager struct {
	dir string

	// gate orders batches against snapshots: LogBatch holds it shared
	// for the whole append-then-apply sequence, Snapshot holds it
	// exclusively, so no batch is ever half-applied (in the WAL but not
	// in the store, or vice versa) at the moment the store is captured.
	gate sync.RWMutex

	// walMu serializes appends to the WAL file itself. walEnd is the
	// durable end of the file — it advances by whole frames only, which
	// is what lets the replication shipper read [offset, walEnd) without
	// racing a half-written frame.
	walMu  sync.Mutex
	wal    *os.File
	epoch  uint64
	walEnd int64

	// shipMu guards the attached replication shipper (nil when no
	// follower is attached).
	shipMu sync.Mutex
	ship   *Shipper

	// followerLost counts shipper detachments forced by a failed
	// pre-snapshot drain: the follower missed frames the WAL reset
	// destroyed and must re-bootstrap.
	followerLost atomic.Uint64

	snapshots    atomic.Uint64
	snapFailures atomic.Uint64
	walBatches   atomic.Uint64
	walRows      atomic.Uint64
	walBytes     atomic.Uint64
	lastSnapNs   atomic.Int64
	lastSnapSize atomic.Int64
}

// Stats is a point-in-time view of the manager's counters, surfaced in
// /metrics.
type Stats struct {
	// Epoch is the live WAL's epoch number.
	Epoch uint64
	// Snapshots and SnapshotFailures count Snapshot outcomes since open.
	Snapshots        uint64
	SnapshotFailures uint64
	// WALBatches/WALRows/WALBytes count appends to the current manager
	// (across WAL resets) since open.
	WALBatches uint64
	WALRows    uint64
	WALBytes   uint64
	// LastSnapshotDuration and LastSnapshotBytes describe the most
	// recent successful snapshot; zero before the first one.
	LastSnapshotDuration time.Duration
	LastSnapshotBytes    int64
	// FollowerLost counts replication shippers detached because a
	// pre-snapshot drain could not confirm the follower received every
	// old-epoch frame (the follower must re-bootstrap).
	FollowerLost uint64
}

// SnapshotInfo describes one committed snapshot.
type SnapshotInfo struct {
	Drives   int
	Bytes    int64
	Duration time.Duration
	Epoch    uint64
}

// Recovery describes what a Restore rebuilt and what it had to drop.
type Recovery struct {
	// SnapshotDrives is the number of drives in the snapshot itself.
	SnapshotDrives int
	// SnapshotEpoch is the epoch the snapshot committed.
	SnapshotEpoch uint64
	// WALBatches/WALRows count the replayed write-ahead records.
	WALBatches int
	WALRows    int
	// WALAlerts counts alerts re-raised during replay (suppressed — the
	// original process already delivered them).
	WALAlerts int
	// StaleWAL reports that the WAL predated the snapshot (the crash hit
	// between snapshot commit and WAL reset) and was discarded unreplayed.
	StaleWAL bool
	// TornTail reports that replay stopped at a corrupt or half-written
	// record; DroppedBytes is how much of the WAL tail was discarded.
	TornTail     bool
	DroppedBytes int64
	// Quality accounts for recovery-level quarantine (the torn tail);
	// Replayed merges the per-batch quality ledgers of the replay.
	Quality  quality.Report
	Replayed quality.Report
	// ReappliedVersion is the version of a models.bin artifact newer
	// than the snapshot, which Restore swapped in to finish an
	// interrupted promotion; 0 when there was none.
	ReappliedVersion int
}

// String summarizes the recovery for startup logs.
func (r *Recovery) String() string {
	s := fmt.Sprintf("restored %d drives from snapshot (epoch %d), replayed %d WAL batches / %d rows",
		r.SnapshotDrives, r.SnapshotEpoch, r.WALBatches, r.WALRows)
	if r.StaleWAL {
		s += "; discarded stale pre-snapshot WAL"
	}
	if r.TornTail {
		s += fmt.Sprintf("; quarantined torn WAL tail (%d bytes)", r.DroppedBytes)
	}
	if r.ReappliedVersion > 0 {
		s += fmt.Sprintf("; re-applied promoted model artifact v%d", r.ReappliedVersion)
	}
	return s
}

// Open attaches a manager to a state directory, creating it (and an
// empty epoch-0 WAL) if needed. A stale snapshot.tmp from a crashed
// snapshot attempt is removed; the committed snapshot is never touched.
func Open(dir string) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating state dir: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, snapshotTmp)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: removing stale snapshot.tmp: %w", err)
	}
	m := &Manager{dir: dir}

	// Align the starting epoch with the files on disk: continue the live
	// WAL's epoch if it is readable, else start the epoch after the
	// snapshot's (or zero on a truly cold start).
	walPath := filepath.Join(dir, walName)
	if epoch, err := readWALEpoch(walPath); err == nil {
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("persist: opening WAL: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: stat WAL: %w", err)
		}
		m.wal = f
		m.epoch = epoch
		m.walEnd = fi.Size()
		return m, nil
	}
	epoch := uint64(0)
	if hdr, err := readSnapshotHeader(filepath.Join(dir, snapshotName)); err == nil {
		epoch = hdr.walEpoch
	}
	if err := m.resetWALLocked(epoch); err != nil {
		return nil, err
	}
	return m, nil
}

// Dir returns the state directory.
func (m *Manager) Dir() string { return m.dir }

// HasSnapshot reports whether the directory holds a committed snapshot.
func (m *Manager) HasSnapshot() bool {
	_, err := os.Stat(filepath.Join(m.dir, snapshotName))
	return err == nil
}

// LogBatch makes one ingested batch durable and applies it: the
// observations are appended to the WAL first, then apply (the store
// mutation) runs, all under the shared side of the snapshot gate. If
// the WAL append fails the batch is NOT applied — the caller must
// surface the error instead of acknowledging an ingest that would not
// survive a restart. The returned Position is the WAL stream position
// just past this batch's frame: replication callers wait for the
// follower's high-water mark to reach it before acknowledging.
func (m *Manager) LogBatch(obs []fleet.Observation, apply func() fleet.BatchResult) (fleet.BatchResult, Position, error) {
	m.gate.RLock()
	defer m.gate.RUnlock()

	pos, size, err := m.appendFrame(obs)
	if err != nil {
		return fleet.BatchResult{}, Position{}, err
	}
	m.walBatches.Add(1)
	m.walRows.Add(uint64(len(obs)))
	m.walBytes.Add(uint64(size))
	if sh := m.AttachedShipper(); sh != nil {
		sh.nudge()
	}
	return apply(), pos, nil
}

// appendFrame encodes a batch into a pooled buffer and appends it to the
// WAL as one frame, returning the stream position past it and its size.
func (m *Manager) appendFrame(obs []fleet.Observation) (Position, int, error) {
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	frame, err := appendWALRecord((*buf)[:0], obs)
	*buf = frame[:0]
	if err != nil {
		return Position{}, 0, err
	}
	m.walMu.Lock()
	defer m.walMu.Unlock()
	if _, err := m.wal.Write(frame); err != nil {
		return Position{}, 0, fmt.Errorf("persist: appending to WAL: %w", err)
	}
	m.walEnd += int64(len(frame))
	return Position{Epoch: m.epoch, Offset: m.walEnd}, len(frame), nil
}

// frameBufs recycles appendFrame's buffers. The garbage collector
// drains the pool, so a buffer an outsized batch grew does not outlive
// the traffic that needed it.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// Snapshot captures the store's full state and commits it atomically,
// then resets the WAL to the next epoch. Ingestion (LogBatch) is held
// out for the duration of the state export and the commit.
func (m *Manager) Snapshot(s *fleet.Store) (SnapshotInfo, error) {
	return m.SnapshotWith(s, nil)
}

// SnapshotWith runs mutate — typically a model hot swap — inside the
// exclusive snapshot gate and immediately captures the mutated store.
// Coupling the two makes a promotion crash-consistent: every WAL frame
// is logged under the model version of the snapshot that precedes it,
// so replay never crosses a swap. If the process dies after mutate but
// before the snapshot commits, the WAL still matches the old snapshot
// (the swap simply didn't become durable); if it dies between commit
// and WAL reset, the stale-epoch WAL is discarded as usual. A mutate
// error aborts the snapshot with the store unchanged on disk.
func (m *Manager) SnapshotWith(s *fleet.Store, mutate func() error) (SnapshotInfo, error) {
	m.gate.Lock()
	defer m.gate.Unlock()

	if mutate != nil {
		if err := mutate(); err != nil {
			return SnapshotInfo{}, err
		}
	}
	start := time.Now()
	st := s.ExportState()
	newEpoch := m.epoch + 1
	size, err := writeSnapshot(m.dir, st, newEpoch)
	if err != nil {
		m.snapFailures.Add(1)
		return SnapshotInfo{}, err
	}
	// The WAL reset below destroys the old epoch's frames. A follower
	// that has not received all of them yet would be left with a hole it
	// can never fill, so the shipper is drained first (the gate is held:
	// no new frames can appear). If the follower cannot confirm in time,
	// shipping stops — it must re-bootstrap — rather than blocking
	// snapshots on a dead peer or silently skipping its frames.
	if sh := m.AttachedShipper(); sh != nil {
		if derr := sh.Drain(); derr != nil {
			m.DetachShipper()
			m.followerLost.Add(1)
		}
	}
	// The snapshot now covers everything in the old WAL. Reset it to the
	// epoch the snapshot names; if the process dies before this
	// completes, the old WAL's stale epoch tells Restore to discard it.
	m.walMu.Lock()
	err = m.resetWALLocked(newEpoch)
	m.walMu.Unlock()
	if err != nil {
		m.snapFailures.Add(1)
		return SnapshotInfo{}, err
	}
	if sh := m.AttachedShipper(); sh != nil {
		sh.advanceEpoch(newEpoch)
	}
	d := time.Since(start)
	m.snapshots.Add(1)
	m.lastSnapNs.Store(int64(d))
	m.lastSnapSize.Store(size)
	return SnapshotInfo{Drives: len(st.Drives), Bytes: size, Duration: d, Epoch: newEpoch}, nil
}

// resetWALLocked truncates the WAL and writes a fresh header for the
// given epoch. Callers hold walMu (or are single-threaded in Open).
func (m *Manager) resetWALLocked(epoch uint64) error {
	if m.wal != nil {
		m.wal.Close()
		m.wal = nil
	}
	f, err := createWAL(filepath.Join(m.dir, walName), epoch)
	if err != nil {
		return err
	}
	m.wal = f
	m.epoch = epoch
	m.walEnd = walHeaderSize
	return nil
}

// Restore rebuilds a fleet store from the snapshot and replays the WAL
// through the normal ingestion (and therefore quarantine) path. cfg
// supplies the deployment knobs (shards, TTL, workers); the monitor
// configuration and trained models come from the snapshot. The manager
// stays open for appends afterwards: a torn WAL tail is truncated away
// so subsequent LogBatch appends start at the last good record.
//
// A models.bin newer than the restored store is what a crash between
// Promote's two commits leaves. Restore finishes that promotion as
// Promote would have: it swaps inside SnapshotWith's gate, so the
// frames served under the promoted version start a new WAL epoch and a
// second crash replays them under that version. A models.bin that
// cannot be read fails the restore.
func (m *Manager) Restore(cfg fleet.Config) (*fleet.Store, *Recovery, error) {
	store, rec, err := m.restore(cfg)
	if err != nil {
		return nil, nil, err
	}
	art, err := LoadModels(m.dir)
	switch {
	case os.IsNotExist(err):
		return store, rec, nil
	case err != nil:
		return nil, nil, fmt.Errorf("persist: loading model artifact: %w (move it aside to serve the snapshot's models)", err)
	case art.Version <= store.ModelVersion():
		return store, rec, nil
	}
	if _, err := m.SnapshotWith(store, func() error { return store.SwapModels(art.Set()) }); err != nil {
		return nil, nil, fmt.Errorf("persist: re-applying model artifact v%d: %w", art.Version, err)
	}
	rec.ReappliedVersion = art.Version
	return store, rec, nil
}

// restore is Restore up to the model artifact: the snapshot and the
// WAL replay, under the gate.
func (m *Manager) restore(cfg fleet.Config) (*fleet.Store, *Recovery, error) {
	m.gate.Lock()
	defer m.gate.Unlock()

	snapPath := filepath.Join(m.dir, snapshotName)
	st, hdr, err := readSnapshot(snapPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNoSnapshot
		}
		return nil, nil, err
	}
	store, err := fleet.Restore(st, cfg)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{SnapshotDrives: len(st.Drives), SnapshotEpoch: hdr.walEpoch}

	walPath := filepath.Join(m.dir, walName)
	m.walMu.Lock()
	defer m.walMu.Unlock()
	if m.wal != nil {
		m.wal.Close()
		m.wal = nil
	}
	replayEnd, err := m.replayWAL(walPath, hdr.walEpoch, store, rec)
	if err != nil {
		return nil, nil, err
	}
	if rec.StaleWAL || replayEnd < 0 {
		// Pre-snapshot WAL (or unreadable header): discard and restart
		// at the snapshot's epoch.
		if err := m.resetWALLocked(hdr.walEpoch); err != nil {
			return nil, nil, err
		}
		return store, rec, nil
	}
	if rec.TornTail {
		if err := os.Truncate(walPath, replayEnd); err != nil {
			return nil, nil, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: reopening WAL: %w", err)
	}
	m.wal = f
	m.epoch = hdr.walEpoch
	m.walEnd = replayEnd
	return store, rec, nil
}

// replayWAL replays the WAL into the store when its epoch matches the
// snapshot's. It returns the offset of the end of the last good record
// (the truncation point when the tail is torn), or -1 when the WAL is
// missing or its header is unreadable (rec.StaleWAL is set: the file
// cannot be continued).
func (m *Manager) replayWAL(path string, wantEpoch uint64, store *fleet.Store, rec *Recovery) (int64, error) {
	r, err := openWALReader(path)
	if err != nil {
		if os.IsNotExist(err) {
			rec.StaleWAL = false
			return -1, nil
		}
		// Unreadable header: treat like a torn file with nothing
		// recoverable — quarantine it, don't fail the restore.
		rec.TornTail = true
		if fi, serr := os.Stat(path); serr == nil {
			rec.DroppedBytes = fi.Size()
		}
		rec.Quality.Note(quality.Issue{
			Kind:   quality.TruncatedInput,
			Detail: fmt.Sprintf("WAL header unreadable: %v", err),
		}, quality.Config{})
		rec.StaleWAL = true
		return -1, nil
	}
	defer r.Close()

	if r.Epoch() != wantEpoch {
		// The WAL predates (or impossibly postdates) the snapshot: its
		// batches are already inside the snapshot. Replaying them would
		// double-apply (replay is not idempotent).
		rec.StaleWAL = true
		return -1, nil
	}
	for {
		obs, err := r.Next()
		if err == errWALEnd {
			return r.Offset(), nil
		}
		if err != nil {
			// Torn or corrupt record: everything up to here is applied,
			// the rest of the file is quarantined.
			rec.TornTail = true
			rec.DroppedBytes = r.Remaining()
			rec.Quality.Note(quality.Issue{
				Kind:   quality.TruncatedInput,
				Detail: fmt.Sprintf("WAL record at offset %d: %v", r.Offset(), err),
			}, quality.Config{})
			return r.Offset(), nil
		}
		res := store.IngestBatch(obs)
		rec.WALBatches++
		rec.WALRows += res.Ingested
		rec.WALAlerts += len(res.Alerts)
		rec.Replayed.Merge(&res.Quality)
	}
}

// Stats returns a point-in-time view of the manager's counters.
func (m *Manager) Stats() Stats {
	m.walMu.Lock()
	epoch := m.epoch
	m.walMu.Unlock()
	return Stats{
		Epoch:                epoch,
		Snapshots:            m.snapshots.Load(),
		SnapshotFailures:     m.snapFailures.Load(),
		WALBatches:           m.walBatches.Load(),
		WALRows:              m.walRows.Load(),
		WALBytes:             m.walBytes.Load(),
		LastSnapshotDuration: time.Duration(m.lastSnapNs.Load()),
		LastSnapshotBytes:    m.lastSnapSize.Load(),
		FollowerLost:         m.followerLost.Load(),
	}
}

// Close stops any attached shipper and releases the WAL handle. It
// does not snapshot; callers that want a final snapshot take one first.
func (m *Manager) Close() error {
	m.DetachShipper()
	m.gate.Lock()
	defer m.gate.Unlock()
	m.walMu.Lock()
	defer m.walMu.Unlock()
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	return err
}
