package fleet

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"disksig/internal/monitor"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// referenceSummary is the full-sort Summary the one-pass version
// replaced: read every shard's drives, then sort every drive for the
// fleet list and per class. It is the oracle the equivalence tests
// compare against, so it reads no verdict the monitor cached: every
// status is recomputed from the drive's exported windows and the
// store's models.
func referenceSummary(s *Store, topN int) Summary {
	sum := Summary{
		MaxHour:    -1,
		BySeverity: map[string]int{},
		ByType:     map[string]int{},
		ByClass:    map[string]*ClassSummary{},
		Shards:     make([]ShardStats, len(s.shards)),
	}
	var all []DriveHealth
	perClass := map[string][]DriveHealth{}
	for si, sh := range s.shards {
		sh.mu.Lock()
		statuses := recomputedStatuses(sh.mon.ExportDrives(), s.set.Models)
		sum.Shards[si] = ShardStats{Shard: si, Drives: sh.mon.Tracked()}
		if sh.mon.Tracked() > 0 && sh.maxHour > sum.MaxHour {
			sum.MaxHour = sh.maxHour
		}
		for _, st := range statuses {
			sum.Drives++
			sum.BySeverity[st.Severity.String()]++
			if st.Severity >= monitor.Watch {
				sum.ByType[st.Type.String()]++
			}
			cname := st.Class.String()
			cs := sum.ByClass[cname]
			if cs == nil {
				cs = &ClassSummary{BySeverity: map[string]int{}}
				sum.ByClass[cname] = cs
			}
			cs.Drives++
			cs.BySeverity[st.Severity.String()]++
			if topN > 0 {
				dh := DriveHealth{Serial: sh.serials[st.DriveID], DriveStatus: st}
				all = append(all, dh)
				perClass[cname] = append(perClass[cname], dh)
			}
		}
		sh.mu.Unlock()
	}
	sortTop := func(ds []DriveHealth) []DriveHealth {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].Degradation != ds[j].Degradation {
				return ds[i].Degradation < ds[j].Degradation
			}
			return ds[i].Serial < ds[j].Serial
		})
		if len(ds) > topN {
			ds = ds[:topN]
		}
		return ds
	}
	if topN > 0 {
		sum.AtRisk = sortTop(all)
		for cname, drives := range perClass {
			sum.ByClass[cname].AtRisk = sortTop(drives)
		}
	}
	return sum
}

// recomputedStatuses rebuilds the status of every tracked drive in an
// export from its smoothing windows: the worst model is the one whose
// window has the lowest median (an empty window counts as +Inf, and the
// first model wins ties), and the time-to-failure estimate inverts that
// model's signature.
func recomputedStatuses(drives map[int]monitor.DriveState, models []monitor.GroupModel) []monitor.DriveStatus {
	var out []monitor.DriveStatus
	for id, ds := range drives {
		if !ds.Tracked {
			continue
		}
		worst, deg := 0, math.Inf(1)
		for gi, w := range ds.Recent {
			if med := windowMedian(w); med < deg {
				worst, deg = gi, med
			}
		}
		gm := models[worst]
		out = append(out, monitor.DriveStatus{
			DriveID: id, Class: ds.Class, LastHour: ds.LastHour, Severity: ds.Severity,
			Group: gm.Group, Type: gm.Type, Degradation: deg,
			HoursToFailure: signatureHours(gm, deg),
		})
	}
	return out
}

func windowMedian(w []float64) float64 {
	if len(w) == 0 {
		return math.Inf(1)
	}
	sorted := append([]float64(nil), w...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// signatureHours inverts the signature s(t) = (t/d)^k - 1 of a group:
// +Inf outside a degradation window or for a signature that cannot be
// inverted, 0 at or past the failure event.
func signatureHours(gm monitor.GroupModel, deg float64) float64 {
	k := float64(gm.Form.Order())
	switch {
	case math.IsNaN(deg) || deg >= 0 || k <= 0 || !(gm.WindowD > 0):
		return math.Inf(1)
	case deg <= -1:
		return 0
	}
	return gm.WindowD * math.Pow(deg+1, 1/k)
}

// tiedStream feeds a mixed HDD+SSD fleet whose drives each hold one of
// five scores, so most degradations tie and the serial tie-break
// decides the at-risk order. Serials are a permutation of the drive
// index, so neither ingest order nor shard placement follows them.
// SSD scores are negated to match mixedModels' inverted SSD model.
func tiedStream(drives, hours int) []Observation {
	levels := [...]float64{-0.9, -0.4, 0, 0.3, 0.9}
	var obs []Observation
	for h := 0; h < hours; h++ {
		for d := 0; d < drives; d++ {
			score, class := levels[d%len(levels)], smart.HDD
			if d%2 == 1 {
				score, class = -score, smart.SSD
			}
			obs = append(obs, Observation{
				Serial: fmt.Sprintf("T%05d", (d*7919)%10007),
				Class:  class,
				Record: record(h, score),
			})
		}
	}
	return obs
}

// TestSummaryMatchesReference pins Summary to the full-sort reference
// across shard counts, at-risk lengths and the store histories that
// shape degradations: an empty store, ramps, mixed-class ties, repeated
// hours that replace window tails, a restored store, the +Inf
// degradations of a freshly swapped model set, and stores thinned by
// EvictStale and Remove.
func TestSummaryMatchesReference(t *testing.T) {
	const drives = 60
	fleets := []struct {
		name  string
		build func(t *testing.T, shards int) *Store
	}{
		{"empty", func(t *testing.T, shards int) *Store {
			return mixedTestStore(t, Config{Shards: shards})
		}},
		{"hdd-ramps", func(t *testing.T, shards int) *Store {
			s := testStore(t, Config{Shards: shards})
			s.IngestBatch(buildStream(drives, 20))
			return s
		}},
		{"mixed-ties", func(t *testing.T, shards int) *Store {
			s := mixedTestStore(t, Config{Shards: shards})
			s.IngestBatch(tiedStream(drives, 4))
			s.IngestBatch(mixedStream(12, 6))
			return s
		}},
		{"duplicate-hours", func(t *testing.T, shards int) *Store {
			// Each window holds two hours of one score. Repeating the
			// second hour with the score of the drive two places on (the
			// same class) replaces the window's tail, which moves the
			// median of every drive whose new score is higher.
			s := mixedTestStore(t, Config{Shards: shards})
			first := tiedStream(drives, 2)
			s.IngestBatch(first)
			repeat := append([]Observation(nil), first[drives:]...)
			for i := range repeat {
				repeat[i].Record = first[drives+(i+2)%drives].Record
			}
			if res := s.IngestBatch(repeat); res.Quality.ByKind[quality.DuplicateTimestamp] != drives {
				t.Fatalf("repeat batch: %+v, want %d duplicate hours", res.Quality, drives)
			}
			return s
		}},
		{"restored", func(t *testing.T, shards int) *Store {
			s := mixedTestStore(t, Config{Shards: 4})
			s.IngestBatch(tiedStream(drives, 4))
			s.IngestBatch(mixedStream(12, 6))
			r, err := Restore(s.ExportState(), Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"swapped", func(t *testing.T, shards int) *Store {
			s := mixedTestStore(t, Config{Shards: shards})
			s.IngestBatch(tiedStream(drives, 4))
			set := mixedSet()
			set.Version = 2
			if err := s.SwapModels(set); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"swapped-partly-rescored", func(t *testing.T, shards int) *Store {
			s := mixedTestStore(t, Config{Shards: shards})
			s.IngestBatch(tiedStream(drives, 4))
			set := mixedSet()
			set.Version = 2
			if err := s.SwapModels(set); err != nil {
				t.Fatal(err)
			}
			// A third of the drives report again; the rest keep their
			// empty windows and +Inf degradations.
			s.IngestBatch(tiedStream(drives, 5)[4*drives : 4*drives+drives/3])
			return s
		}},
		{"evicted-and-removed", func(t *testing.T, shards int) *Store {
			s := mixedTestStore(t, Config{Shards: shards, TTLHours: 5})
			s.IngestBatch(tiedStream(drives, 4))
			s.IngestBatch(mixedStream(12, 12))
			if n := s.EvictStale(); n != drives {
				t.Fatalf("EvictStale = %d, want the %d tied drives", n, drives)
			}
			s.IngestBatch(tiedStream(drives/2, 2))
			for _, serial := range []string{"HDD0003", "SSD0004", "T00000", "T07919"} {
				if !s.Remove(serial) {
					t.Fatalf("Remove(%s) found no drive", serial)
				}
			}
			return s
		}},
	}
	for _, fl := range fleets {
		for _, shards := range []int{1, 4, 16} {
			s := fl.build(t, shards)
			for _, topN := range []int{0, 1, 5, s.Tracked() + 3} {
				got, want := s.Summary(topN), referenceSummary(s, topN)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s shards=%d top=%d:\n got %+v\nwant %+v", fl.name, shards, topN, got, want)
				}
			}
		}
	}
}

// TestSummaryAllocsDoNotGrowWithDrives pins Summary's memory to O(topN):
// a store forty times larger costs no more allocations per call.
func TestSummaryAllocsDoNotGrowWithDrives(t *testing.T) {
	allocs := func(drives int) float64 {
		s := mixedTestStore(t, Config{Shards: 16})
		s.IngestBatch(tiedStream(drives, 3))
		return testing.AllocsPerRun(20, func() { s.Summary(10) })
	}
	if small, large := allocs(100), allocs(4000); large > small {
		t.Fatalf("Summary(10) allocs/call grew from %v at 100 drives to %v at 4000", small, large)
	}
}
