package wire_test

import (
	"testing"

	"disksig/internal/loadgen"
	"disksig/internal/quality"
	"disksig/internal/synth"
	"disksig/internal/wire"
)

// trafficBodies builds the JSON ingest bodies of a loadgen workload the
// way perfbench's replicated-json workload builds its own: synth
// profiles through loadgen.BuildWorkload, 200 records a body, encoded by
// loadgen.EncodeBatch. Unlike BenchmarkIngestDecodeJSON's fixture, whose
// every value has 16 or 17 digits, most of these values are short.
func trafficBodies(tb testing.TB, n int) [][]byte {
	tb.Helper()
	wl, err := loadgen.BuildWorkload(loadgen.DefaultWorkloadConfig(synth.ScaleSmall, 1))
	if err != nil {
		tb.Fatal(err)
	}
	var bodies [][]byte
	for _, bt := range wl.Split(1)[0] {
		if len(bodies) == n {
			break
		}
		if len(bt.Obs) == 200 {
			bodies = append(bodies, bt.Body)
		}
	}
	if len(bodies) < n {
		tb.Fatalf("workload has %d full batches, want %d", len(bodies), n)
	}
	return bodies
}

// BenchmarkIngestDecodeJSONTraffic is BenchmarkIngestDecodeJSON over
// workload traffic: a warm decoder reading 40 bodies of 200 records in
// turn.
func BenchmarkIngestDecodeJSONTraffic(b *testing.B) {
	bodies := trafficBodies(b, 40)
	var d wire.Decoder
	var rep quality.Report
	size := 0
	for _, body := range bodies {
		if _, err := d.DecodeJSON(body, &rep); err != nil {
			b.Fatal(err)
		}
		size += len(body)
	}
	b.SetBytes(int64(size / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeJSON(bodies[i%len(bodies)], &rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*200)/b.Elapsed().Seconds(), "records/s")
}

// TestTrafficNumberPaths reports which conversion path workload traffic
// takes. Both fast paths must carry it.
func TestTrafficNumberPaths(t *testing.T) {
	total := map[string]int{}
	for _, body := range trafficBodies(t, 40) {
		paths, err := wire.NumberPaths(body)
		if err != nil {
			t.Fatal(err)
		}
		for p, n := range paths {
			total[p] += n
		}
	}
	t.Logf("values by path: %v", total)
	if total["exact"] == 0 || total["eisel-lemire"] == 0 {
		t.Fatalf("values by path %v: want both fast paths taken", total)
	}
}
