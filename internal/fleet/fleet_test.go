package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"disksig/internal/core"
	"disksig/internal/monitor"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

// rampPredictor scores records by their RRER value directly, making test
// trajectories easy to construct (same idiom as the monitor tests).
type rampPredictor struct{}

func (rampPredictor) Predict(x []float64) float64 { return x[smart.RRER] }

func testNormalizer() *smart.Normalizer {
	n := smart.NewNormalizer()
	var lo, hi smart.Values
	for a := range lo {
		lo[a] = -1
		hi[a] = 1
	}
	n.Observe(lo)
	n.Observe(hi)
	return n
}

func testModels() []monitor.GroupModel {
	return []monitor.GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: rampPredictor{},
	}}
}

func testStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := New(testModels(), testNormalizer(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func record(hour int, score float64) smart.Record {
	var v smart.Values
	v[smart.RRER] = score
	return smart.Record{Hour: hour, Values: v}
}

func TestShardCountPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 8}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {16, 16},
	} {
		s := testStore(t, Config{Shards: tc.in})
		if s.Shards() != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, s.Shards(), tc.want)
		}
	}
}

func TestShardingIsStable(t *testing.T) {
	s := testStore(t, Config{Shards: 16})
	for i := 0; i < 100; i++ {
		serial := fmt.Sprintf("ZX%08d", i)
		if a, b := s.shardIndex(serial), s.shardIndex(serial); a != b {
			t.Fatalf("shardIndex(%q) unstable: %d vs %d", serial, a, b)
		}
	}
	// FNV-1a should spread distinct serials across shards.
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		seen[s.shardIndex(fmt.Sprintf("ZX%08d", i))] = true
	}
	if len(seen) < 8 {
		t.Errorf("256 serials landed on only %d/16 shards", len(seen))
	}
}

func TestIngestAndQuery(t *testing.T) {
	s := testStore(t, Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}})
	if a := s.Ingest("SER-1", record(0, 0.9)); a != nil {
		t.Errorf("healthy record alerted: %v", a)
	}
	a := s.Ingest("SER-1", record(1, -0.9))
	if a == nil || a.Serial != "SER-1" || a.Severity < monitor.Warning {
		t.Fatalf("degraded record alert = %+v", a)
	}
	dh, ok := s.Drive("SER-1")
	if !ok || dh.Serial != "SER-1" || dh.LastHour != 1 {
		t.Fatalf("Drive = %+v, %v", dh, ok)
	}
	if _, ok := s.Drive("SER-404"); ok {
		t.Error("Drive succeeded for an unknown serial")
	}
	if s.Tracked() != 1 {
		t.Errorf("Tracked = %d, want 1", s.Tracked())
	}
}

func TestRemove(t *testing.T) {
	s := testStore(t, Config{Shards: 2})
	s.Ingest("SER-1", record(0, 0.9))
	if !s.Remove("SER-1") {
		t.Fatal("Remove of a tracked drive returned false")
	}
	if s.Remove("SER-1") || s.Remove("SER-404") {
		t.Fatal("Remove of an untracked drive returned true")
	}
	if s.Tracked() != 0 {
		t.Fatalf("Tracked = %d after Remove, want 0", s.Tracked())
	}
	// A removed drive that reports again restarts with fresh state: an
	// old hour is a fresh first sample, not an out-of-order drop.
	if _, ok := s.Drive("SER-1"); ok {
		t.Fatal("Drive succeeded after Remove")
	}
	s.Ingest("SER-1", record(0, 0.9))
	if dh, ok := s.Drive("SER-1"); !ok || dh.Severity != monitor.Healthy {
		t.Fatalf("re-ingested drive = %+v, %v", dh, ok)
	}
}

func TestEvictStale(t *testing.T) {
	s := testStore(t, Config{Shards: 4, TTLHours: 10})
	s.Ingest("OLD-1", record(0, 0.9))
	s.Ingest("OLD-2", record(5, 0.9))
	s.Ingest("NEW-1", record(100, 0.9))
	if n := s.EvictStale(); n != 2 {
		t.Fatalf("EvictStale = %d, want 2", n)
	}
	if _, ok := s.Drive("OLD-1"); ok {
		t.Error("stale drive OLD-1 survived eviction")
	}
	if _, ok := s.Drive("NEW-1"); !ok {
		t.Error("fresh drive NEW-1 was evicted")
	}
	if s.Tracked() != 1 {
		t.Errorf("Tracked = %d after eviction, want 1", s.Tracked())
	}
	// TTL disabled: never evicts.
	s2 := testStore(t, Config{Shards: 4})
	s2.Ingest("OLD-1", record(0, 0.9))
	s2.Ingest("NEW-1", record(1000, 0.9))
	if n := s2.EvictStale(); n != 0 {
		t.Errorf("EvictStale with TTL disabled = %d, want 0", n)
	}
}

// TestFreedIDsAreReused: the IDs that Remove, EvictStale and a failed
// import free are taken by the next new drives, so a shard's ID space
// stays bounded by its live drives, and a drive on a reused ID keeps
// nothing of the drive before it: the store exports and summarizes
// exactly what a store that only saw the surviving drives' records does.
func TestFreedIDsAreReused(t *testing.T) {
	cfg := Config{Shards: 1, TTLHours: 50, HistoryHours: 8}
	s, fresh := testStore(t, cfg), testStore(t, cfg)
	ingest := func(serial string, rec smart.Record, survives bool) {
		s.Ingest(serial, rec)
		if survives {
			fresh.Ingest(serial, rec)
		}
	}
	for h := 0; h < 4; h++ {
		ingest("GONE-1", record(h, -0.9), false)
		ingest("GONE-2", record(h, 0.3), false)
	}
	ingest("GONE-1", nonFiniteRecord(4), false)
	if !s.Remove("GONE-1") {
		t.Fatal("Remove(GONE-1) = false")
	}
	for h := 100; h < 103; h++ {
		ingest("KEEP-1", record(h, 0.2), true)
	}
	ingest("KEEP-1", nonFiniteRecord(103), true)
	if n := s.EvictStale(); n != 1 {
		t.Fatalf("EvictStale = %d, want 1 (GONE-2)", n)
	}
	corrupt := &State{HasHour: true, Drives: []DriveEntry{{
		Serial: "BAD-1", State: monitor.DriveState{Ledger: monitor.DriveLedger{RowsRead: -1}},
	}}}
	if _, err := s.ImportEntries(corrupt); err == nil {
		t.Fatal("corrupt import accepted")
	}
	for h := 200; h < 203; h++ {
		ingest("NEW-1", record(h, -0.5), true)
		ingest("NEW-2", record(h, 0.8), true)
	}
	if got := len(s.shards[0].serials); got != s.Tracked() {
		t.Fatalf("shard minted %d IDs for %d live drives", got, s.Tracked())
	}
	if got, want := canonicalState(s.ExportState()), canonicalState(fresh.ExportState()); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after ID reuse differs from a store that saw only the live drives:\n%+v\n%+v", got.Drives, want.Drives)
	}
	if got, want := s.Summary(10), fresh.Summary(10); !reflect.DeepEqual(got, want) {
		t.Fatalf("summary after ID reuse = %+v, want %+v", got, want)
	}
}

// buildStream interleaves records of many drives: drive d degrades when
// d is odd, stays healthy when even; a few records are defective.
func buildStream(drives, hours int) []Observation {
	var obs []Observation
	for h := 0; h < hours; h++ {
		for d := 0; d < drives; d++ {
			score := 0.9
			if d%2 == 1 {
				score = 0.9 - 2*float64(h)/float64(hours-1) // ramp to -1.1
			}
			rec := record(h, score)
			if d%7 == 3 && h == hours/2 {
				rec.Values[smart.TC] = math.NaN() // quarantine bait
			}
			obs = append(obs, Observation{Serial: fmt.Sprintf("SER-%04d", d), Record: rec})
		}
	}
	return obs
}

func TestIngestBatchMatchesSequential(t *testing.T) {
	obs := buildStream(40, 20)

	seq := testStore(t, Config{Shards: 1, Workers: 1})
	var seqAlerts []Alert
	for _, o := range obs {
		if a := seq.Ingest(o.Serial, o.Record); a != nil {
			seqAlerts = append(seqAlerts, *a)
		}
	}
	seqQ := seq.Quality()

	for _, cfg := range []Config{
		{Shards: 1, Workers: 1},
		{Shards: 4, Workers: 8},
		{Shards: 16, Workers: 3},
	} {
		par := testStore(t, cfg)
		res := par.IngestBatch(obs)
		if res.Ingested != len(obs) {
			t.Fatalf("cfg %+v: Ingested = %d, want %d", cfg, res.Ingested, len(obs))
		}
		if len(res.Alerts) != len(seqAlerts) {
			t.Fatalf("cfg %+v: %d alerts, want %d", cfg, len(res.Alerts), len(seqAlerts))
		}
		for i := range res.Alerts {
			got, want := res.Alerts[i], seqAlerts[i]
			// DriveID is shard-local; compare the externally meaningful fields.
			got.DriveID, want.DriveID = 0, 0
			if got != want {
				t.Fatalf("cfg %+v: alert %d = %+v, want %+v", cfg, i, got, want)
			}
		}
		q := par.Quality()
		if q.RowsRead != seqQ.RowsRead || q.RowsQuarantined != seqQ.RowsQuarantined {
			t.Fatalf("cfg %+v: quality %d/%d, want %d/%d",
				cfg, q.RowsRead, q.RowsQuarantined, seqQ.RowsRead, seqQ.RowsQuarantined)
		}
		// Batch delta ledger matches the cumulative ledger of a fresh store.
		if res.Quality.RowsRead != q.RowsRead || res.Quality.RowsQuarantined != q.RowsQuarantined {
			t.Fatalf("cfg %+v: batch ledger %d/%d, cumulative %d/%d",
				cfg, res.Quality.RowsRead, res.Quality.RowsQuarantined, q.RowsRead, q.RowsQuarantined)
		}
		if res.Quality.RowsRead != res.Quality.RowsKept()+res.Quality.RowsQuarantined {
			t.Fatalf("cfg %+v: ledger invariant violated: %+v", cfg, res.Quality)
		}
		// Per-drive final state matches.
		for d := 0; d < 40; d++ {
			serial := fmt.Sprintf("SER-%04d", d)
			a, aok := seq.Drive(serial)
			b, bok := par.Drive(serial)
			if aok != bok {
				t.Fatalf("cfg %+v: drive %s presence mismatch", cfg, serial)
			}
			a.DriveID, b.DriveID = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("cfg %+v: drive %s = %+v, want %+v", cfg, serial, b, a)
			}
		}
	}
}

func TestSummary(t *testing.T) {
	s := testStore(t, Config{Shards: 4})
	s.IngestBatch(buildStream(20, 20))
	sum := s.Summary(5)
	if sum.Drives != 20 {
		t.Fatalf("Summary.Drives = %d, want 20", sum.Drives)
	}
	if sum.MaxHour != 19 {
		t.Errorf("Summary.MaxHour = %d, want 19", sum.MaxHour)
	}
	total := 0
	for _, n := range sum.BySeverity {
		total += n
	}
	if total != 20 {
		t.Errorf("BySeverity sums to %d, want 20", total)
	}
	// The 10 odd drives ramp to critical; they must dominate roll-ups.
	if sum.BySeverity[monitor.Critical.String()] != 10 {
		t.Errorf("critical drives = %d, want 10 (%v)", sum.BySeverity[monitor.Critical.String()], sum.BySeverity)
	}
	if sum.ByType[core.Logical.String()] != 10 {
		t.Errorf("alerting logical drives = %d, want 10 (%v)", sum.ByType[core.Logical.String()], sum.ByType)
	}
	if len(sum.AtRisk) != 5 {
		t.Fatalf("AtRisk has %d entries, want 5", len(sum.AtRisk))
	}
	for i := 1; i < len(sum.AtRisk); i++ {
		a, b := sum.AtRisk[i-1], sum.AtRisk[i]
		if a.Degradation > b.Degradation {
			t.Errorf("AtRisk not sorted: %v before %v", a, b)
		}
	}
	occupancy := 0
	for _, ss := range sum.Shards {
		occupancy += ss.Drives
	}
	if len(sum.Shards) != 4 || occupancy != 20 {
		t.Errorf("shard occupancy = %v (sum %d), want 4 shards summing to 20", sum.Shards, occupancy)
	}
	// Summary without an at-risk list.
	if got := s.Summary(0); got.AtRisk != nil {
		t.Errorf("Summary(0).AtRisk = %v, want nil", got.AtRisk)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	// Race-detector workout: batched ingest, queries, summaries and
	// evictions from many goroutines at once.
	s := testStore(t, Config{Shards: 8, TTLHours: 1000})
	obs := buildStream(30, 10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			s.Summary(3)
			s.Drive("SER-0001")
			s.Tracked()
			s.EvictStale()
			s.Quality()
		}
	}()
	for i := 0; i < 4; i++ {
		s.IngestBatch(obs)
	}
	<-done
}
