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
// monitor knows — tracked or quarantine-only — keyed by drive ID. The
// result is serialization-ready: the caller owns it, and re-importing it
// into a fresh monitor reproduces the original state exactly.
func (m *Monitor) ExportDrives() map[int]DriveState {
	out := make(map[int]DriveState, m.tracked)
	for si := range m.slots {
		if m.slots[si].live {
			out[m.idOf(int32(si))] = m.export(int32(si))
		}
	}
	return out
}

// ExportDrive deep-copies drive id's state as ExportDrives does, or
// reports false when the monitor does not know the drive.
func (m *Monitor) ExportDrive(id int) (DriveState, bool) {
	si, ok := m.slot(id)
	if !ok {
		return DriveState{}, false
	}
	return m.export(si), true
}

func (m *Monitor) export(si int32) DriveState {
	s := &m.slots[si]
	ds := DriveState{Ledger: m.ledger(si)}
	if s.tracked {
		ds.Tracked = true
		ds.Class = s.class
		ds.LastHour = s.lastHour
		ds.Seen = s.seen
		ds.Severity = Severity(s.severity)
		ds.Recent = make([][]float64, len(m.models))
		for gi := range ds.Recent {
			if w := m.window(si, gi); len(w) > 0 {
				ds.Recent[gi] = append([]float64(nil), w...)
			}
		}
	}
	return ds
}

// ledger exports slot si's quality ledger, leaving a map nil when it
// would be empty so exported and re-imported states compare equal.
func (m *Monitor) ledger(si int32) DriveLedger {
	s := &m.slots[si]
	led := DriveLedger{RowsRead: s.rowsRead, RowsQuarantined: s.rowsQuarantined}
	for e := s.issues; e != 0; e = m.issues[e-1].next {
		c := &m.issues[e-1]
		if c.key < numKinds {
			if led.ByKind == nil {
				led.ByKind = map[quality.Kind]int{}
			}
			led.ByKind[quality.Kind(c.key)] = c.n
		} else {
			if led.ByField == nil {
				led.ByField = map[string]int{}
			}
			led.ByField[m.fields[c.key-numKinds]] = c.n
		}
	}
	return led
}

// ImportDrive installs one exported drive state at drive id in a monitor
// built with the same models and config. The state is validated first —
// a corrupted snapshot yields an error and installs nothing, never an
// out-of-range index or a smoothing window wider than the configuration
// allows. The drive's ledger is re-added to the monitor-wide quality
// report, so restored accounting sums back up and a later Forget
// releases it cleanly. A ledger entry with a zero count carries nothing
// and is dropped, so export → import → export is a fixpoint.
func (m *Monitor) ImportDrive(id int, st DriveState) error {
	if id < 0 {
		return fmt.Errorf("monitor: negative drive ID %d", id)
	}
	if si, ok := m.slot(id); ok {
		return m.taken(si)
	}
	if err := m.checkImport(id, st); err != nil {
		return err
	}
	m.install(id, st)
	return nil
}

// taken is ImportDrive's refusal of a slot that already holds a drive.
func (m *Monitor) taken(si int32) error {
	if m.slots[si].tracked {
		return fmt.Errorf("monitor: drive %d already tracked", m.idOf(si))
	}
	return fmt.Errorf("monitor: drive %d already has a ledger", m.idOf(si))
}

// checkImport validates an exported state of drive id against the
// monitor's models and config.
func (m *Monitor) checkImport(driveID int, st DriveState) error {
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
	return nil
}

// install puts a checked state at drive id, whose slot holds no drive.
func (m *Monitor) install(id int, st DriveState) {
	si := m.at(id)
	s := &m.slots[si]
	m.addRows(s, st.Ledger.RowsRead, st.Ledger.RowsQuarantined)
	for k, n := range st.Ledger.ByKind {
		if n > 0 {
			m.count(si, int32(k), n)
			m.quality.ByKind[k] += n
		}
	}
	for f, n := range st.Ledger.ByField {
		if n > 0 {
			m.count(si, m.fieldKey(f), n)
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
}
