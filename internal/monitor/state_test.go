package monitor

import (
	"math"
	"reflect"
	"testing"

	"disksig/internal/quality"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

func TestHoursToFailureBoundaries(t *testing.T) {
	quad := GroupModel{Form: regression.FormQuadratic, WindowD: 24}
	cubic := GroupModel{Form: regression.FormCubic, WindowD: 24}
	cases := []struct {
		name string
		gm   GroupModel
		deg  float64
		want float64 // math.Inf(1) for "not in window"
	}{
		{"healthy", quad, 1, math.Inf(1)},
		{"window edge", quad, 0, math.Inf(1)},
		{"just above edge", quad, math.SmallestNonzeroFloat64, math.Inf(1)},
		// Just inside the window: (s+1)^(1/2) ~= 1, so ~= d. The t²/d²-1
		// inversion must not divide by the vanishing degradation.
		{"just inside window", quad, -1e-300, 24},
		{"just inside window cubic", cubic, -1e-300, 24},
		{"mid window", quad, -0.75, 12},
		{"failure event", quad, -1, 0},
		{"beyond fitted range", quad, -1.5, 0},
		{"deeply out of range", cubic, math.Inf(-1), 0},
		{"nan degradation", quad, math.NaN(), math.Inf(1)},
		{"unknown form", GroupModel{Form: regression.SignatureForm(99), WindowD: 24}, -0.5, math.Inf(1)},
		{"zero window", GroupModel{Form: regression.FormQuadratic}, -0.5, math.Inf(1)},
		{"negative window", GroupModel{Form: regression.FormQuadratic, WindowD: -3}, -0.5, math.Inf(1)},
		{"nan window", GroupModel{Form: regression.FormQuadratic, WindowD: math.NaN()}, -0.5, math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := hoursToFailure(tc.gm, tc.deg)
			if math.IsNaN(got) {
				t.Fatalf("hoursToFailure(%v) = NaN", tc.deg)
			}
			if got < 0 {
				t.Fatalf("hoursToFailure(%v) = %v, negative estimate", tc.deg, got)
			}
			if math.IsInf(tc.want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("hoursToFailure(%v) = %v, want +Inf", tc.deg, got)
				}
				return
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("hoursToFailure(%v) = %v, want %v", tc.deg, got, tc.want)
			}
		})
	}
}

// nonFiniteRecord poisons one attribute so the record is quarantined.
func nonFiniteRecord(hour int) smart.Record {
	var v smart.Values
	v[smart.RRER] = math.NaN()
	return smart.Record{Hour: hour, Values: v}
}

func TestForgetReleasesQualityLedger(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive 1: one clean record, one duplicate, one stale, one non-finite.
	m.Ingest(1, record(5, 0.9))
	m.Ingest(1, record(5, 0.8))
	m.Ingest(1, record(3, 0.7))
	m.Ingest(1, nonFiniteRecord(6))
	// Drive 2 keeps its own dirt so Forget(1) must subtract only 1's share.
	m.Ingest(2, record(0, 0.9))
	m.Ingest(2, nonFiniteRecord(1))

	if got := m.Quality().RowsRead; got != 6 {
		t.Fatalf("RowsRead = %d, want 6", got)
	}
	if !m.Forget(1) {
		t.Fatal("Forget(1) = false")
	}
	q := m.Quality()
	if q.RowsRead != 2 || q.RowsQuarantined != 1 {
		t.Fatalf("after Forget: %d read, %d quarantined, want 2/1", q.RowsRead, q.RowsQuarantined)
	}
	if q.Count(quality.DuplicateTimestamp) != 0 || q.Count(quality.OutOfOrderTimestamp) != 0 {
		t.Fatalf("forgotten drive's duplicate/out-of-order counts leaked: %v", q.Summary())
	}
	if q.Count(quality.NonFinite) != 1 {
		t.Fatalf("NonFinite = %d after Forget, want drive 2's single count", q.Count(quality.NonFinite))
	}
	if got := q.ByField[smart.RRER.String()]; got != 1 {
		t.Fatalf("ByField[%s] = %d after Forget, want 1", smart.RRER, got)
	}
	// Forgetting drive 2 empties the ledger completely (ByField keys
	// must be deleted, not left at zero).
	m.Forget(2)
	q = m.Quality()
	if q.RowsRead != 0 || q.RowsQuarantined != 0 || len(q.ByField) != 0 {
		t.Fatalf("ledger not empty after forgetting all drives: %v", q.Summary())
	}
	for k := 0; k < 16; k++ {
		if q.Count(quality.Kind(k)) != 0 {
			t.Fatalf("kind %v count leaked after forgetting all drives", quality.Kind(k))
		}
	}
}

func TestForgetQuarantineOnlyDrive(t *testing.T) {
	m, err := New(testModels(), testNormalizer(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Ingest(7, nonFiniteRecord(0))
	if m.Tracked() != 0 {
		t.Fatalf("quarantine-only drive counted as tracked")
	}
	if m.Quality().RowsQuarantined != 1 {
		t.Fatal("quarantine not accounted")
	}
	// The drive was never tracked, so Forget reports false — but it must
	// still release the quarantine accounting.
	if m.Forget(7) {
		t.Fatal("Forget of quarantine-only drive returned true")
	}
	if q := m.Quality(); q.RowsRead != 0 || q.RowsQuarantined != 0 {
		t.Fatalf("quarantine-only ledger leaked: %v", q.Summary())
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	src, err := New(testModels(), testNormalizer(), Config{Smoothing: 3})
	if err != nil {
		t.Fatal(err)
	}
	src.Ingest(1, record(0, 0.9))
	src.Ingest(1, record(1, 0.3))
	src.Ingest(1, record(2, -0.2))
	src.Ingest(1, record(2, -0.3)) // duplicate hour
	src.Ingest(2, record(10, -0.9))
	src.Ingest(3, nonFiniteRecord(0)) // quarantine-only drive

	exported := src.ExportDrives()
	if len(exported) != 3 {
		t.Fatalf("exported %d drives, want 3", len(exported))
	}
	if exported[3].Tracked {
		t.Fatal("quarantine-only drive exported as tracked")
	}
	for id := -1; id <= 4; id++ {
		st, ok := src.ExportDrive(id)
		if want, known := exported[id]; ok != known || !reflect.DeepEqual(st, want) {
			t.Fatalf("ExportDrive(%d) = %+v, %v; ExportDrives holds %+v, %v", id, st, ok, want, known)
		}
	}

	dst, err := New(testModels(), testNormalizer(), Config{Smoothing: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id, st := range exported {
		if err := dst.ImportDrive(id, st); err != nil {
			t.Fatalf("ImportDrive(%d): %v", id, err)
		}
	}
	if dst.Tracked() != src.Tracked() {
		t.Fatalf("Tracked = %d after import, want %d", dst.Tracked(), src.Tracked())
	}
	if !reflect.DeepEqual(dst.ExportDrives(), exported) {
		t.Fatal("re-export of imported state differs from the original export")
	}
	for _, id := range []int{1, 2} {
		a, aok := src.Status(id)
		b, bok := dst.Status(id)
		if !aok || !bok || !reflect.DeepEqual(a, b) {
			t.Fatalf("Status(%d) differs after import: %+v vs %+v", id, a, b)
		}
	}
	if !dst.Quality().CountersEqual(src.Quality()) {
		t.Fatalf("quality counters differ after import:\n%v\nvs\n%v", dst.Quality(), src.Quality())
	}
	// Behavior parity after restore: the same next record yields the
	// same alert decision on both monitors.
	a1 := src.Ingest(1, record(3, -0.8))
	a2 := dst.Ingest(1, record(3, -0.8))
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("post-import alerts diverge: %v vs %v", a1, a2)
	}
}

func TestImportDriveRejectsCorruptState(t *testing.T) {
	fresh := func() *Monitor {
		m, err := New(testModels(), testNormalizer(), Config{Smoothing: 3})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	okTracked := DriveState{
		Tracked: true, LastHour: 4, Seen: true, Severity: Watch,
		Recent: [][]float64{{0.4}},
		Ledger: DriveLedger{RowsRead: 1},
	}
	m := fresh()
	if err := m.ImportDrive(1, okTracked); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if err := m.ImportDrive(1, okTracked); err == nil {
		t.Fatal("duplicate import accepted")
	}
	cases := []struct {
		name   string
		mutate func(*DriveState)
	}{
		{"negative rows", func(s *DriveState) { s.Ledger.RowsRead = -1 }},
		{"quarantined over read", func(s *DriveState) { s.Ledger.RowsQuarantined = 2 }},
		{"invalid kind", func(s *DriveState) { s.Ledger.ByKind = map[quality.Kind]int{quality.Kind(99): 1} }},
		{"negative kind count", func(s *DriveState) { s.Ledger.ByKind = map[quality.Kind]int{quality.NonFinite: -1} }},
		{"empty field key", func(s *DriveState) { s.Ledger.ByField = map[string]int{"": 1} }},
		{"bad severity", func(s *DriveState) { s.Severity = Severity(9) }},
		{"wrong window count", func(s *DriveState) { s.Recent = [][]float64{{0.4}, {0.4}} }},
		{"window over smoothing cap", func(s *DriveState) { s.Recent = [][]float64{{1, 2, 3, 4}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := okTracked
			st.Recent = [][]float64{append([]float64(nil), okTracked.Recent[0]...)}
			tc.mutate(&st)
			if err := fresh().ImportDrive(2, st); err == nil {
				t.Fatal("corrupt state accepted")
			}
		})
	}
}

// TestSlotStateHoldsNoPointer pins the layout the garbage collector
// never scans: a drive's slot and its issue counts hold no pointer, and
// a monitor addressed by slot, as a fleet shard's is, keeps no per-slot
// ID even after drives collect issues, leave and arrive. A Forget
// returns the drive's issue counts to the arena for the next drive's
// issues. TestShardMonitorKeepsNoIDMap in internal/fleet pins that the
// monitor keeps no ID map.
func TestSlotStateHoldsNoPointer(t *testing.T) {
	for _, v := range []any{driveSlot{}, issueCount{}} {
		if typ := reflect.TypeOf(v); holdsPointer(typ) {
			t.Fatalf("%v holds a pointer", typ)
		}
	}
	m, err := New(testModels(), testNormalizer(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		m.Ingest(id, record(0, 0.9))
		m.Ingest(id, record(0, 0.8))
		m.Ingest(id, nonFiniteRecord(1))
	}
	arena := len(m.issues)
	m.Forget(1)
	m.Ingest(1, nonFiniteRecord(2))
	m.Ingest(4, record(0, 0.9))
	m.Ingest(4, record(0, 0.9))
	if len(m.issues) != arena {
		t.Fatalf("issue arena grew from %d to %d entries with %d released", arena, len(m.issues), 3)
	}
	if m.ids != nil {
		t.Fatal("a monitor addressed by slot keeps per-slot IDs")
	}
}

// holdsPointer reports whether a value of typ holds a pointer the
// garbage collector would scan.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	default:
		return false
	}
}
