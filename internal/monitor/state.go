package monitor

import (
	"fmt"

	"disksig/internal/quality"
	"disksig/internal/smart"
)

// DriveState is the serializable per-drive state of a monitor: the
// smoothing windows and severity for tracked drives, plus the drive's
// quality-ledger contribution. Drives whose every record was
// quarantined have a ledger but Tracked is false — restoring them must
// not make them count as tracked.
type DriveState struct {
	// Tracked reports whether the drive has monitor state (smoothing
	// windows, severity); false for quarantine-only drives.
	Tracked bool
	// Class is the drive's device class. The zero value is HDD, so
	// snapshots that predate device classes restore as HDD drives.
	Class    smart.DeviceClass
	LastHour int
	Seen     bool
	Severity Severity
	// Recent holds the last Smoothing raw scores per group model; an
	// empty window is nil.
	Recent [][]float64
	// Ledger is the drive's contribution to the quality report.
	Ledger DriveLedger
}

// ExportDrives deep-copies the per-drive state of every drive the
// monitor knows — tracked or quarantine-only. The result is
// serialization-ready: the caller owns it, and re-importing it into a
// fresh monitor reproduces the original state exactly.
func (m *Monitor) ExportDrives() map[int]DriveState {
	out := make(map[int]DriveState, len(m.index))
	for si := range m.slots {
		s := &m.slots[si]
		if !s.live {
			continue
		}
		ds := DriveState{Ledger: s.ledger()}
		if s.tracked {
			ds.Tracked = true
			ds.Class = s.class
			ds.LastHour = s.lastHour
			ds.Seen = s.seen
			ds.Severity = Severity(s.severity)
			ds.Recent = make([][]float64, len(m.models))
			for gi := range ds.Recent {
				if w := m.window(int32(si), gi); len(w) > 0 {
					ds.Recent[gi] = append([]float64(nil), w...)
				}
			}
		}
		out[s.id] = ds
	}
	return out
}

// ledger exports the slot's quality ledger, leaving a map nil when it
// would be empty so exported and re-imported states compare equal.
func (s *driveSlot) ledger() DriveLedger {
	led := DriveLedger{RowsRead: s.rowsRead, RowsQuarantined: s.rowsQuarantined}
	if s.issues == nil {
		return led
	}
	for k, n := range s.issues.byKind {
		if n != 0 {
			if led.ByKind == nil {
				led.ByKind = map[quality.Kind]int{}
			}
			led.ByKind[quality.Kind(k)] = n
		}
	}
	if len(s.issues.byField) > 0 {
		led.ByField = make(map[string]int, len(s.issues.byField))
		for _, fc := range s.issues.byField {
			led.ByField[fc.field] = fc.n
		}
	}
	return led
}

// ImportDrive installs one exported drive state into a monitor built
// with the same models and config. The state is validated first — a
// corrupted snapshot yields an error, never an out-of-range index or a
// smoothing window wider than the configuration allows. The drive's
// ledger is re-added to the monitor-wide quality report, so restored
// accounting sums back up and a later Forget releases it cleanly. A
// ledger entry with a zero count carries nothing and is dropped, so
// export → import → export is a fixpoint.
func (m *Monitor) ImportDrive(driveID int, st DriveState) error {
	if si, ok := m.index[driveID]; ok {
		if m.slots[si].tracked {
			return fmt.Errorf("monitor: drive %d already tracked", driveID)
		}
		return fmt.Errorf("monitor: drive %d already has a ledger", driveID)
	}
	if st.Ledger.RowsRead < 0 || st.Ledger.RowsQuarantined < 0 || st.Ledger.RowsQuarantined > st.Ledger.RowsRead {
		return fmt.Errorf("monitor: drive %d ledger rows invalid (%d read, %d quarantined)",
			driveID, st.Ledger.RowsRead, st.Ledger.RowsQuarantined)
	}
	for k, n := range st.Ledger.ByKind {
		if !k.Valid() || n < 0 {
			return fmt.Errorf("monitor: drive %d ledger has invalid kind %d count %d", driveID, int(k), n)
		}
	}
	for f, n := range st.Ledger.ByField {
		if f == "" || n < 0 {
			return fmt.Errorf("monitor: drive %d ledger has invalid field count %q=%d", driveID, f, n)
		}
	}
	if st.Tracked {
		if !st.Class.Valid() || m.classModels[st.Class] == 0 {
			return fmt.Errorf("monitor: drive %d has class %v, which this monitor has no models for", driveID, st.Class)
		}
		if st.Severity < Healthy || st.Severity > Critical {
			return fmt.Errorf("monitor: drive %d has invalid severity %d", driveID, int(st.Severity))
		}
		if len(st.Recent) != len(m.models) {
			return fmt.Errorf("monitor: drive %d has %d score windows, monitor has %d models",
				driveID, len(st.Recent), len(m.models))
		}
		for gi, w := range st.Recent {
			if len(w) > m.cfg.Smoothing {
				return fmt.Errorf("monitor: drive %d group window %d has %d scores, smoothing cap is %d",
					driveID, gi, len(w), m.cfg.Smoothing)
			}
		}
	}

	si := m.slotOf(driveID)
	s := &m.slots[si]
	m.addRows(s, st.Ledger.RowsRead, st.Ledger.RowsQuarantined)
	for k, n := range st.Ledger.ByKind {
		if n > 0 {
			s.breakdown().byKind[k] += n
			m.quality.ByKind[k] += n
		}
	}
	for f, n := range st.Ledger.ByField {
		if n > 0 {
			s.breakdown().addField(f, n)
			if m.quality.ByField == nil {
				m.quality.ByField = map[string]int{}
			}
			m.quality.ByField[f] += n
		}
	}
	if st.Tracked {
		s.tracked, s.class = true, st.Class
		s.lastHour, s.seen, s.severity = st.LastHour, st.Seen, int8(st.Severity)
		m.tracked++
		for gi, w := range st.Recent {
			wi := int(si)*len(m.models) + gi
			copy(m.scores[wi*m.cfg.Smoothing:], w)
			m.lens[wi] = int32(len(w))
		}
		m.refresh(si)
	}
	return nil
}
