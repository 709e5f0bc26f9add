package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"disksig/internal/monitor"
)

// paperDrives is the paper's population, the fleet routed serving holds.
const paperDrives = 23395

// warmFleet builds a 16-shard store holding drives drives with full
// smoothing windows (three hours each, all healthy) and returns it with
// the drives' serials and next fresh hour.
func warmFleet(tb testing.TB, drives int) (*Store, []string, []int) {
	tb.Helper()
	s, err := New(testModels(), testNormalizer(), Config{Shards: 16})
	if err != nil {
		tb.Fatal(err)
	}
	serials := make([]string, drives)
	next := make([]int, drives)
	for d := range serials {
		serials[d] = fmt.Sprintf("SER-%05d", d)
		next[d] = 3
	}
	batch := make([]Observation, 0, 200)
	for h := 0; h < 3; h++ {
		for d := range serials {
			batch = append(batch, Observation{Serial: serials[d], Record: record(h, 0.9)})
			if len(batch) == cap(batch) || d == drives-1 {
				if res := s.IngestBatch(batch); res.Quality.RowsQuarantined != 0 {
					tb.Fatalf("warm-up quarantined %d rows", res.Quality.RowsQuarantined)
				}
				batch = batch[:0]
			}
		}
	}
	return s, serials, next
}

// randomBatches is a cycle of 200-record batches of uniformly random
// drives; nextBatch stamps each record with its drive's next hour, so
// replaying the cycle keeps every record fresh and clean.
type randomBatches struct {
	serials []string
	next    []int
	drives  [][]int
	obs     []Observation
	i       int
}

func newRandomBatches(serials []string, next []int) *randomBatches {
	rng := rand.New(rand.NewSource(1))
	rb := &randomBatches{serials: serials, next: next, obs: make([]Observation, 200)}
	for b := 0; b < 64; b++ {
		ds := make([]int, len(rb.obs))
		for j := range ds {
			ds[j] = rng.Intn(len(serials))
		}
		rb.drives = append(rb.drives, ds)
	}
	return rb
}

func (rb *randomBatches) nextBatch() []Observation {
	ds := rb.drives[rb.i%len(rb.drives)]
	rb.i++
	for j, d := range ds {
		rb.obs[j] = Observation{Serial: rb.serials[d], Record: record(rb.next[d], 0.9)}
		rb.next[d]++
	}
	return rb.obs
}

// TestRetainedBytesPerDrive bounds the heap a store retains per tracked
// drive at the paper's population, with two thirds of the drives
// carrying an issue (a duplicate hour, or a quarantined non-finite
// record and so a per-field count) and with every drive carrying one, a
// third of them a stale record, as perfbench's faulty stream leaves
// them. On go1.24/amd64 the map-per-drive monitor layout retained 466
// bytes per drive in the first case. The slot table with a monitor ID
// map and a heap-allocated issue ledger per drive retained 261 and 297;
// slots addressed by shard ID with issue counts in one pointer-free
// arena retained 179 and 186. The store now keeps its own copy of each
// serial, 16 bytes for these nine-byte serials, instead of the caller's
// string, which may slice a whole decoded batch: 195 and 202. The
// bounds sit just above the last pair.
func TestRetainedBytesPerDrive(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates heap objects")
	}
	for _, tc := range []struct {
		name  string
		every bool
		bound float64
	}{
		{"two thirds with issues", false, 206},
		{"every drive with issues", true, 211},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perDrive := retainedPerDrive(t, tc.every)
			t.Logf("%.0f retained bytes per drive", perDrive)
			if perDrive > tc.bound {
				t.Fatalf("store retains %.0f bytes per drive, bound %.0f", perDrive, tc.bound)
			}
		})
	}
}

// retainedPerDrive ingests three clean hours of the paper's population
// and then one issue per drive, on every drive or on two of each three,
// and returns the heap the store retains per drive.
func retainedPerDrive(t *testing.T, every bool) float64 {
	obs := make([]Observation, 0, 4*paperDrives)
	for h := 0; h < 3; h++ {
		for d := 0; d < paperDrives; d++ {
			obs = append(obs, Observation{Serial: fmt.Sprintf("SER-%05d", d), Record: record(h, 0.9)})
		}
	}
	for d := 0; d < paperDrives; d++ {
		rec := record(2, 0.9) // a duplicate of the drive's last hour
		switch {
		case d%3 == 1:
			rec = record(3, 0.9)
			rec.Values[0] = math.NaN()
		case d%3 == 2 && !every:
			continue
		case d%3 == 2:
			rec = record(1, 0.9) // stale
		}
		obs = append(obs, Observation{Serial: obs[d].Serial, Record: rec})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(testModels(), testNormalizer(), Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(obs); i += 200 {
		s.IngestBatch(obs[i:min(i+200, len(obs))])
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Tracked() != paperDrives {
		t.Fatalf("tracked %d drives, want %d", s.Tracked(), paperDrives)
	}
	runtime.KeepAlive(obs)
	runtime.KeepAlive(s)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / paperDrives
}

// TestShardMonitorKeepsNoIDMap pins the one ID space: a shard's drive
// ID is its monitor's slot, so the monitor keeps no map from drive IDs,
// and every drive the shard lists answers from the monitor at its ID.
func TestShardMonitorKeepsNoIDMap(t *testing.T) {
	s := testStore(t, Config{Shards: 4})
	s.IngestBatch(dirtyFleetStream(40, 6))
	s.Remove("SN0007")
	s.Ingest("NEW", record(9, 0.9))
	for si, sh := range s.shards {
		typ := reflect.TypeOf(*sh.mon)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Map && f.Type.Key().Kind() == reflect.Int {
				t.Fatalf("the shard monitor's %s maps drive IDs", f.Name)
			}
		}
		for serial, id := range sh.ids {
			if _, ok := sh.mon.ExportDrive(id); !ok {
				t.Fatalf("shard %d: %s has ID %d, which its monitor does not hold", si, serial, id)
			}
			if st, ok := sh.mon.Status(id); ok && st.DriveID != id {
				t.Fatalf("shard %d: %s has ID %d, its monitor status says %d", si, serial, id, st.DriveID)
			}
		}
	}
}

// TestIngestAllocsFlatInFleetSize pins that steady-state batch ingest
// allocates no more per batch at the paper's population than at 256
// drives: per-drive state is reached by lookup, never by allocation.
func TestIngestAllocsFlatInFleetSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := func(drives int) float64 {
		s, serials, next := warmFleet(t, drives)
		rb := newRandomBatches(serials, next)
		runtime.GC()
		return testing.AllocsPerRun(200, func() {
			if res := s.IngestBatch(rb.nextBatch()); res.Quality.RowsQuarantined != 0 {
				t.Fatalf("steady batch quarantined %d rows", res.Quality.RowsQuarantined)
			}
		})
	}
	small, large := allocs(256), allocs(paperDrives)
	if large > small {
		t.Fatalf("IngestBatch allocates %v per batch at %d drives, %v at 256", large, paperDrives, small)
	}
}

// TestDriveAllocatesNothing pins that a drive read allocates nothing: it
// copies the drive's cached verdict and computes only the time-to-failure
// estimate.
func TestDriveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := testStore(t, Config{Shards: 16})
	s.IngestBatch(buildStream(64, 6))
	serials := []string{"SER-0000", "SER-0001", "SER-0003"}
	for _, serial := range serials {
		if _, ok := s.Drive(serial); !ok {
			t.Fatalf("Drive(%s) found no drive", serial)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, serial := range serials {
			s.Drive(serial)
		}
	}); n != 0 {
		t.Fatalf("Drive allocates %v per call", n/float64(len(serials)))
	}
}

// checkNoSlack requires every shard monitor's slot, window-length and
// score tables to end at the highest drive ID the shard holds, with no
// spare capacity past it.
func checkNoSlack(t *testing.T, s *Store, when string) {
	t.Helper()
	for si, sh := range s.shards {
		ids := 0
		for _, id := range sh.ids {
			ids = max(ids, id+1)
		}
		mon := reflect.ValueOf(sh.mon).Elem()
		models := mon.FieldByName("models").Len()
		smoothing := int(mon.FieldByName("cfg").FieldByName("Smoothing").Int())
		for _, table := range []struct {
			name string
			per  int
		}{{"slots", 1}, {"lens", models}, {"scores", models * smoothing}} {
			if got := mon.FieldByName(table.name).Cap(); got != ids*table.per {
				t.Errorf("%s: shard %d holds IDs below %d, its %s table has room for %d entries, want %d",
					when, si, ids, table.name, got, ids*table.per)
			}
		}
	}
}

// TestTablesSizedExactly: a restore, an import and a model swap each
// know how many drives they install, so every shard monitor's tables
// end at the highest drive ID, where growing them by append leaves
// slack.
func TestTablesSizedExactly(t *testing.T) {
	src := testStore(t, Config{Shards: 4})
	src.IngestBatch(dirtyFleetStream(300, 4))
	st := src.ExportState()
	restored, err := Restore(st, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkNoSlack(t, restored, "after a restore")
	imported := testStore(t, Config{Shards: 4})
	if _, err := imported.ImportEntries(st); err != nil {
		t.Fatal(err)
	}
	checkNoSlack(t, imported, "after an import")
	if err := src.SwapModels(swappedSet(0.5, 2)); err != nil {
		t.Fatal(err)
	}
	checkNoSlack(t, src, "after a swap")
}

// TestStoreKeepsOwnSerials: a decoded batch's serials slice one string
// per batch, so the store copies a serial when it starts tracking the
// drive, and an alert carries that copy; otherwise a drive would keep
// its first batch alive for as long as it is tracked.
func TestStoreKeepsOwnSerials(t *testing.T) {
	s := testStore(t, Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}})
	var batches []string
	var alerts []Alert
	for h, score := range []float64{0.9, -0.9} {
		var ser Serials
		obs := make([]Observation, 64)
		for d := range obs {
			ser.Add([]byte(fmt.Sprintf("SER-%04d", d)))
			obs[d].Record = record(h, score)
		}
		ser.Assign(obs)
		batches = append(batches, unsafe.String(unsafe.StringData(obs[0].Serial), 64*8))
		alerts = append(alerts, s.IngestBatch(obs).Alerts...)
	}
	inBatch := func(serial string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(serial)))
		for _, b := range batches {
			if lo := uintptr(unsafe.Pointer(unsafe.StringData(b))); p >= lo && p < lo+uintptr(len(b)) {
				return true
			}
		}
		return false
	}
	if len(alerts) != 64 {
		t.Fatalf("%d alerts, want one per drive", len(alerts))
	}
	for _, a := range alerts {
		if inBatch(a.Serial) {
			t.Fatalf("alert for %s carries the batch's serial", a.Serial)
		}
	}
	for _, sh := range s.shards {
		for serial, id := range sh.ids {
			if inBatch(serial) || inBatch(sh.serials[id]) {
				t.Fatalf("the store keeps %s in a batch's string", serial)
			}
		}
	}
}
