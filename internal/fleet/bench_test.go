package fleet

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkFleetIngest measures batched ingestion throughput across the
// shard × worker grid, the serving path's headline number (records/op is
// fixed at drives × hours, so ns/op divides straight into records/s).
func BenchmarkFleetIngest(b *testing.B) {
	const drives, hours = 256, 24
	obs := buildStream(drives, hours)
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(len(obs)), "recs/op")
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := New(testModels(), testNormalizer(), Config{Shards: shards, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					res := s.IngestBatch(obs)
					if res.Ingested != len(obs) {
						b.Fatalf("ingested %d, want %d", res.Ingested, len(obs))
					}
				}
			})
		}
	}
}

// BenchmarkIngestSteady measures the steady-state batch path the server
// sits on: every drive already tracked, every hour fresh, no
// quarantines and no escalations. This is where the <1 alloc/record
// budget of the binary ingest hot path is spent.
func BenchmarkIngestSteady(b *testing.B) {
	const drives, hours = 256, 4
	obs := make([]Observation, 0, drives*hours)
	serials := make([]string, drives)
	for d := range serials {
		serials[d] = fmt.Sprintf("SER-%04d", d)
	}
	for h := 0; h < hours; h++ {
		for d := 0; d < drives; d++ {
			obs = append(obs, Observation{Serial: serials[d], Record: record(h, 0.9)})
		}
	}
	s, err := New(testModels(), testNormalizer(), Config{Shards: 16, Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	if res := s.IngestBatch(obs); res.Ingested != len(obs) {
		b.Fatalf("warm-up ingested %d, want %d", res.Ingested, len(obs))
	}
	b.ReportAllocs()
	b.ReportMetric(float64(len(obs)), "recs/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range obs {
			obs[j].Record.Hour += hours
		}
		res := s.IngestBatch(obs)
		if res.Quality.RowsQuarantined != 0 {
			b.Fatalf("steady batch quarantined %d rows", res.Quality.RowsQuarantined)
		}
	}
	b.ReportMetric(float64(b.N*len(obs))/b.Elapsed().Seconds(), "records/s")
}

// benchSummary keeps BenchmarkSummary's result live.
var benchSummary Summary

// BenchmarkSummary measures the /v1/fleet/summary roll-up on a store
// with the server's 16 shards, at 3,000 drives and at the paper's
// 23,395, with the default at-risk list (top=10) and without one
// (top=0, the /metrics view). Each drive holds a distinct degradation
// spread over [-1, 1], so every alert level is populated.
func BenchmarkSummary(b *testing.B) {
	const hours = 3
	for _, drives := range []int{3000, 23395} {
		s, err := New(testModels(), testNormalizer(), Config{Shards: 16})
		if err != nil {
			b.Fatal(err)
		}
		obs := make([]Observation, 0, drives*hours)
		for h := 0; h < hours; h++ {
			for d := 0; d < drives; d++ {
				score := 1 - 2*math.Mod(float64(d)*0.6180339887, 1)
				obs = append(obs, Observation{Serial: fmt.Sprintf("SER-%05d", d), Record: record(h, score)})
			}
		}
		s.IngestBatch(obs)
		for _, top := range []int{10, 0} {
			b.Run(fmt.Sprintf("drives=%d/top=%d", drives, top), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSummary = s.Summary(top)
				}
			})
		}
	}
}

// BenchmarkIngestFleetSize measures steady-state batch ingest against
// fleet size: 16 shards, full smoothing windows, 200-record batches of
// uniformly random drives. The work per record is the same at every
// size, so ns/rec growing with the fleet is the cost of reaching
// per-drive state.
func BenchmarkIngestFleetSize(b *testing.B) {
	for _, drives := range []int{256, 3000, 11700, paperDrives} {
		b.Run(fmt.Sprintf("drives=%d", drives), func(b *testing.B) {
			s, serials, next := warmFleet(b, drives)
			rb := newRandomBatches(serials, next)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := s.IngestBatch(rb.nextBatch()); res.Quality.RowsQuarantined != 0 {
					b.Fatalf("steady batch quarantined %d rows", res.Quality.RowsQuarantined)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rb.obs)), "ns/rec")
		})
	}
}
