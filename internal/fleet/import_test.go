package fleet

import (
	"reflect"
	"testing"
)

// Importing every exported entry into an empty, identically-configured
// store must reproduce the source bit-for-bit — same contract as
// Restore, reached through the live-merge path.
func TestImportEntriesRoundTrip(t *testing.T) {
	cfg := Config{Shards: 8, Workers: 4}
	src := testStore(t, cfg)
	src.IngestBatch(dirtyFleetStream(30, 10))
	st := src.ExportState()

	dst := testStore(t, Config{Shards: 2, Workers: 1}) // layout is free to differ
	n, err := dst.ImportEntries(st)
	if err != nil {
		t.Fatalf("ImportEntries: %v", err)
	}
	if n != len(st.Drives) {
		t.Fatalf("imported %d entries, state has %d", n, len(st.Drives))
	}
	if dst.Tracked() != src.Tracked() {
		t.Fatalf("Tracked = %d, want %d", dst.Tracked(), src.Tracked())
	}
	if h, ok := dst.MaxHour(); !ok || h != st.MaxHour {
		t.Fatalf("MaxHour = %d,%v, want %d", h, ok, st.MaxHour)
	}
	want := canonicalState(st)
	got := canonicalState(dst.ExportState())
	if !reflect.DeepEqual(want, got) {
		t.Fatal("re-exported state differs after ImportEntries")
	}

	// Behavior parity: the moved drives score their next records exactly
	// as they would have on the source.
	next := dirtyFleetStream(30, 10)[:80]
	for i := range next {
		next[i].Record.Hour += 50
	}
	a, b := src.IngestBatch(next), dst.IngestBatch(next)
	a.Quality.StripDiagnostics()
	b.Quality.StripDiagnostics()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("post-import batch diverges from source")
	}
}

// A partial import merges alongside existing drives; re-importing any
// already-present serial is a conflict.
func TestImportEntriesMergeAndConflict(t *testing.T) {
	src := testStore(t, Config{Shards: 4})
	src.IngestBatch(dirtyFleetStream(12, 6))
	st := src.ExportState()
	half := *st
	half.Drives = st.Drives[:len(st.Drives)/2]

	dst := testStore(t, Config{Shards: 4})
	dst.Ingest("LOCAL-1", record(0, 0.9))
	n, err := dst.ImportEntries(&half)
	if err != nil {
		t.Fatalf("ImportEntries: %v", err)
	}
	if n != len(half.Drives) {
		t.Fatalf("imported %d, want %d", n, len(half.Drives))
	}
	for _, e := range half.Drives {
		if e.State.Tracked {
			if _, ok := dst.Drive(e.Serial); !ok {
				t.Fatalf("imported drive %s not queryable", e.Serial)
			}
		}
	}
	if _, ok := dst.Drive("LOCAL-1"); !ok {
		t.Fatal("pre-existing drive lost by import")
	}
	if _, err := dst.ImportEntries(&half); err == nil {
		t.Fatal("re-import of tracked serials accepted")
	}
}

func TestImportEntriesRejectsCorruptState(t *testing.T) {
	src := testStore(t, Config{Shards: 4})
	src.IngestBatch(dirtyFleetStream(6, 4))
	dst := testStore(t, Config{Shards: 4})

	for _, tc := range []struct {
		name   string
		mutate func(*State)
	}{
		{"empty serial", func(st *State) { st.Drives[0].Serial = "" }},
		{"duplicate serial", func(st *State) { st.Drives = append(st.Drives, st.Drives[0]) }},
		{"drives without hour", func(st *State) { st.HasHour = false }},
	} {
		st := src.ExportState()
		tc.mutate(st)
		if _, err := dst.ImportEntries(st); err == nil {
			t.Fatalf("%s: corrupt state imported", tc.name)
		}
	}
	if _, err := dst.ImportEntries(nil); err == nil {
		t.Fatal("nil state imported")
	}
}

// A drive the import refuses leaves nothing behind: here its history
// fails the check (hours 0, 0), and the store must neither track, list
// nor count the drive, so the same serial imports cleanly once its
// history is mended.
func TestImportEntriesRefusedDriveLeavesNoTrace(t *testing.T) {
	src := testStore(t, Config{Shards: 2, HistoryHours: 8})
	src.Ingest("BAD", record(0, 0.9))
	src.Ingest("BAD", record(1, 0.9))
	st := src.ExportState()
	st.Drives[0].History[1].Hour = 0 // history hours 0, 0

	dst := testStore(t, Config{Shards: 2, HistoryHours: 8})
	n, err := dst.ImportEntries(st)
	if err == nil || n != 0 {
		t.Fatalf("ImportEntries = %d, %v; want 0 and an error", n, err)
	}
	q := dst.Quality()
	if dst.Tracked() != 0 || len(dst.Serials()) != 0 || q.RowsRead != 0 {
		t.Fatalf("refused drive left behind: %d tracked, serials %v, %d ledger rows",
			dst.Tracked(), dst.Serials(), q.RowsRead)
	}
	if _, ok := dst.Drive("BAD"); ok {
		t.Fatal("refused drive answers a read")
	}
	st.Drives[0].History[1].Hour = 1
	if n, err := dst.ImportEntries(st); err != nil || n != 1 {
		t.Fatalf("mended import = %d, %v; want 1 drive", n, err)
	}
	if got := dst.ExportState(); !reflect.DeepEqual(canonicalState(got).Drives, canonicalState(src.ExportState()).Drives) {
		t.Fatal("mended import differs from the source")
	}
}

// The exported MaxHour can exceed every drive's LastHour (quarantined
// records advance telemetry time); the surplus must survive the import
// so eviction does not rejuvenate moved fleets.
func TestImportEntriesKeepsMaxHourSurplus(t *testing.T) {
	src := testStore(t, Config{Shards: 2})
	src.Ingest("A", record(5, 0.9))
	src.Ingest("A", nonFiniteRecord(500)) // quarantined, but hour 500 observed
	st := src.ExportState()
	if st.MaxHour != 500 {
		t.Fatalf("exported MaxHour = %d, want 500", st.MaxHour)
	}
	dst := testStore(t, Config{Shards: 2})
	if _, err := dst.ImportEntries(st); err != nil {
		t.Fatal(err)
	}
	if h, ok := dst.MaxHour(); !ok || h != 500 {
		t.Fatalf("imported MaxHour = %d,%v, want 500", h, ok)
	}
}

// Serials lists exactly the drives ExportState exports, quarantine-only
// drives included and removed ones not, and an export filtered by
// serials holds just the named drives the store has, as the full export
// holds them.
func TestSerialsAndFilteredExport(t *testing.T) {
	s := testStore(t, Config{Shards: 4})
	if got := s.Serials(); got == nil || len(got) != 0 {
		t.Fatalf("empty store lists %#v, want []", got)
	}
	s.IngestBatch(dirtyFleetStream(20, 6))
	s.Ingest("QONLY", nonFiniteRecord(3))
	s.Remove("SN0001")
	full := s.ExportState()
	var want []string
	entries := map[string]DriveEntry{}
	for _, e := range full.Drives {
		want = append(want, e.Serial)
		entries[e.Serial] = e
	}
	if got := s.Serials(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Serials() = %v, ExportState() exports %v", got, want)
	}

	sub := s.ExportState("SN0002", "QONLY", "SN0001", "NOPE")
	if len(sub.Drives) != 2 || !reflect.DeepEqual(sub.Drives, []DriveEntry{entries["QONLY"], entries["SN0002"]}) {
		t.Fatalf("filtered export holds %+v, want QONLY and SN0002 as exported in full", sub.Drives)
	}
	if !reflect.DeepEqual(sub.ModelSet(), full.ModelSet()) || sub.MaxHour != full.MaxHour || !sub.HasHour {
		t.Fatal("filtered export lost the store's model set or max hour")
	}
	if sub.Quality.RowsRead != 0 {
		t.Fatalf("filtered export carries a fleet ledger of %d rows", sub.Quality.RowsRead)
	}
}
