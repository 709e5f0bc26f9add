package wire

import (
	"testing"

	"disksig/internal/quality"
)

// BenchmarkIngestDecode measures the steady-state frame decode that
// sits on the binary ingest hot path: a warm decoder (buffers sized)
// re-reading batches from the same drives.
func BenchmarkIngestDecode(b *testing.B) {
	obs := testObs(512)
	frame := EncodeBatch(obs)
	var d Decoder
	var rep quality.Report
	if _, err := d.Decode(frame, &rep); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := d.Decode(frame, &rep)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(obs) {
			b.Fatalf("kept %d of %d", len(got), len(obs))
		}
	}
	b.ReportMetric(float64(b.N*len(obs))/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkIngestEncode measures frame building into a reused buffer,
// the loadgen/client side of the wire.
func BenchmarkIngestEncode(b *testing.B) {
	obs := testObs(512)
	buf := make([]byte, 0, EncodedSize(obs))
	b.SetBytes(int64(EncodedSize(obs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendBatch(buf[:0], obs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestDecodeJSON is BenchmarkIngestDecode for the same 512
// records as a JSON body: a warm decoder re-reading batches from the
// same drives.
func BenchmarkIngestDecodeJSON(b *testing.B) {
	obs := testObs(512)
	body := jsonFixture(obs)
	var d Decoder
	var rep quality.Report
	if _, err := d.DecodeJSON(body, &rep); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := d.DecodeJSON(body, &rep)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(obs) {
			b.Fatalf("kept %d of %d", len(got), len(obs))
		}
	}
	b.ReportMetric(float64(b.N*len(obs))/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSplitJSON measures the router's JSON split of the same body
// across three nodes.
func BenchmarkSplitJSON(b *testing.B) {
	body := jsonFixture(testObs(512))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SplitJSON(body, 3, splitAssign, nil); err != nil {
			b.Fatal(err)
		}
	}
}
