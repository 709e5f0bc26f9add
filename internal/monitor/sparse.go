package monitor

import (
	"io"

	"disksig/internal/quality"
	"disksig/internal/smart"
)

// Sparse addresses a Monitor by arbitrary drive IDs: a map from each ID
// to a slot in front of the monitor's slot path. It serves callers whose
// IDs are not dense, such as the replay tools, which key a drive by its
// fleet DriveID and keep a second fleet apart with 1_000_000+DriveID; a
// fleet shard, whose IDs are dense, addresses its monitor directly.
// Alerts, statuses, walks, exports, snapshots and issue labels carry the
// caller's IDs, and a forgotten drive's slot goes to the next new ID.
type Sparse struct {
	m     *Monitor
	index map[int]int32
	// free holds the slots Forget released, reused before the table
	// grows.
	free []int32
}

// NewSparse addresses m, which must hold no drive yet, by arbitrary IDs.
func NewSparse(m *Monitor) *Sparse {
	if len(m.slots) > 0 {
		panic("monitor: NewSparse over a monitor that holds drives")
	}
	m.ids = []int{}
	return &Sparse{m: m, index: map[int]int32{}}
}

// slotOf returns drive id's slot, giving a new drive a free slot or,
// when none is free, the next one past the table's end.
func (s *Sparse) slotOf(id int) int32 {
	if si, ok := s.index[id]; ok {
		return si
	}
	var si int32
	if n := len(s.free); n > 0 {
		si = s.free[n-1]
		s.free = s.free[:n-1]
		s.m.ids[si] = id
	} else {
		si = int32(len(s.m.ids))
		s.m.ids = append(s.m.ids, id)
	}
	s.index[id] = si
	return si
}

// Ingest is Monitor.Ingest for drive id.
func (s *Sparse) Ingest(id int, rec smart.Record) *Alert {
	a, _ := s.IngestClass(id, smart.HDD, rec)
	return a
}

// IngestClass is Monitor.IngestClass for drive id.
func (s *Sparse) IngestClass(id int, class smart.DeviceClass, rec smart.Record) (*Alert, bool) {
	return s.m.IngestRecord(int(s.slotOf(id)), class, &rec)
}

// Status is Monitor.Status for drive id.
func (s *Sparse) Status(id int) (DriveStatus, bool) {
	si, ok := s.index[id]
	if !ok {
		return DriveStatus{}, false
	}
	return s.m.Status(int(si))
}

// Forget is Monitor.Forget for drive id.
func (s *Sparse) Forget(id int) bool {
	si, ok := s.index[id]
	if !ok {
		return false
	}
	delete(s.index, id)
	s.free = append(s.free, si)
	return s.m.Forget(int(si))
}

// ImportDrive is Monitor.ImportDrive for drive id.
func (s *Sparse) ImportDrive(id int, st DriveState) error {
	if si, ok := s.index[id]; ok {
		return s.m.taken(si)
	}
	if err := s.m.checkImport(id, st); err != nil {
		return err
	}
	s.m.install(int(s.slotOf(id)), st)
	return nil
}

// Each is Monitor.Each; verdicts carry the caller's IDs.
func (s *Sparse) Each(fn func(Verdict)) { s.m.Each(fn) }

// ExportDrives is Monitor.ExportDrives, keyed by the caller's IDs.
func (s *Sparse) ExportDrives() map[int]DriveState { return s.m.ExportDrives() }

// Quality is Monitor.Quality.
func (s *Sparse) Quality() *quality.Report { return s.m.Quality() }

// Tracked is Monitor.Tracked.
func (s *Sparse) Tracked() int { return s.m.Tracked() }

// WriteSnapshotJSON is Monitor.WriteSnapshotJSON; drives carry the
// caller's IDs.
func (s *Sparse) WriteSnapshotJSON(w io.Writer) error { return s.m.WriteSnapshotJSON(w) }
