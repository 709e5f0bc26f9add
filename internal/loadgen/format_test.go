package loadgen

import (
	"context"
	"math"
	"testing"
	"time"

	"disksig/internal/quality"
	"disksig/internal/server"
	"disksig/internal/wire"
)

// TestBinarySplitBodiesDecodeToObs proves a binary workload's prebuilt
// bodies are faithful: decoding Batch.Body with the server's wire
// decoder yields exactly Batch.Obs (NaN-for-NaN), with a clean ledger.
func TestBinarySplitBodiesDecodeToObs(t *testing.T) {
	wl := WorkloadFromDrives(testDrives(), 4).WithFormat(FormatBinary)
	var dec wire.Decoder
	for _, q := range wl.Split(2) {
		for _, b := range q {
			if b.ContentType != wire.ContentType {
				t.Fatalf("batch %d/%d content type %q, want %q", b.Stream, b.Index, b.ContentType, wire.ContentType)
			}
			var rep quality.Report
			obs, err := dec.Decode(b.Body, &rep)
			if err != nil {
				t.Fatalf("batch %d/%d: %v", b.Stream, b.Index, err)
			}
			if !rep.Clean() {
				t.Fatalf("batch %d/%d quarantined %d rows of a well-formed workload", b.Stream, b.Index, rep.RowsQuarantined)
			}
			if len(obs) != len(b.Obs) {
				t.Fatalf("batch %d/%d decoded %d records, want %d", b.Stream, b.Index, len(obs), len(b.Obs))
			}
			for i := range obs {
				if obs[i].Serial != b.Obs[i].Serial || obs[i].Record.Hour != b.Obs[i].Record.Hour {
					t.Fatalf("batch %d/%d record %d: %s@%d, want %s@%d", b.Stream, b.Index, i,
						obs[i].Serial, obs[i].Record.Hour, b.Obs[i].Serial, b.Obs[i].Record.Hour)
				}
				for a, got := range obs[i].Record.Values {
					want := b.Obs[i].Record.Values[a]
					if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("batch %d/%d record %d attr %d: %v, want %v", b.Stream, b.Index, i, a, got, want)
					}
				}
			}
		}
	}
}

// TestWithFormatSharesObservations checks that the two encodings of a
// workload differ only in bytes: per-batch observations are identical,
// bodies and fingerprints are not.
func TestWithFormatSharesObservations(t *testing.T) {
	wl := WorkloadFromDrives(testDrives(), 4)
	jq := wl.WithFormat(FormatJSON).Split(2)
	bq := wl.WithFormat(FormatBinary).Split(2)
	if fj, fb := Fingerprint(jq), Fingerprint(bq); fj == fb {
		t.Fatalf("formats produced identical workload fingerprint %s", fj)
	}
	if CountRecords(jq) != CountRecords(bq) {
		t.Fatalf("record counts differ: %d vs %d", CountRecords(jq), CountRecords(bq))
	}
	for s := range jq {
		if len(jq[s]) != len(bq[s]) {
			t.Fatalf("stream %d: %d JSON batches vs %d binary", s, len(jq[s]), len(bq[s]))
		}
		for i := range jq[s] {
			j, b := jq[s][i], bq[s][i]
			if len(j.Obs) != len(b.Obs) {
				t.Fatalf("stream %d batch %d: %d vs %d observations", s, i, len(j.Obs), len(b.Obs))
			}
			for k := range j.Obs {
				if j.Obs[k].Serial != b.Obs[k].Serial || j.Obs[k].Record.Hour != b.Obs[k].Record.Hour {
					t.Fatalf("stream %d batch %d record %d differs across formats", s, i, k)
				}
			}
		}
	}
}

// TestFormatsReplayToIdenticalState replays the same hand-built
// workload over real HTTP in both formats against two fresh servers and
// requires bit-identical canonical-state fingerprints and the same
// alert multiset — the loadgen-level round-trip equivalence proof.
func TestFormatsReplayToIdenticalState(t *testing.T) {
	dep := testDeployment(t)
	run := func(f Format) (string, []string, int) {
		wl := WorkloadFromDrives(testDrives(), 4).WithFormat(f)
		h, err := StartHarness(dep.Set, dep.fleetConfig(), server.Config{MaxInFlight: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			h.Stop(ctx)
		}()
		drv := &Driver{BaseURL: h.URL}
		stats, err := drv.Run(context.Background(), Phase{Name: "fmt-" + string(f), Clients: 2}, wl.Split(2))
		if err != nil {
			t.Fatal(err)
		}
		if stats.RecordsSent != wl.Records() {
			t.Fatalf("%s: sent %d records, want %d", f, stats.RecordsSent, wl.Records())
		}
		return StateFingerprint(CanonicalState(h.Store)), stats.AlertKeys, stats.RecordsQuarantined
	}
	fpJSON, alertsJSON, quarJSON := run(FormatJSON)
	fpBin, alertsBin, quarBin := run(FormatBinary)
	if fpJSON != fpBin {
		t.Fatalf("state fingerprints differ: json %s vs binary %s", fpJSON, fpBin)
	}
	if err := CompareAlerts("json", "binary", alertsJSON, alertsBin, false); err != nil {
		t.Fatal(err)
	}
	if len(alertsJSON) == 0 {
		t.Fatal("no alerts raised; the comparison is vacuous")
	}
	if quarJSON != quarBin {
		t.Fatalf("quarantine counts differ: json %d vs binary %d", quarJSON, quarBin)
	}
	if quarJSON == 0 {
		t.Fatal("poisoned drive quarantined nothing; the ledger comparison is vacuous")
	}
}

func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Format
		ok   bool
	}{
		{"", FormatJSON, true},
		{"json", FormatJSON, true},
		{"binary", FormatBinary, true},
		{"protobuf", "", false},
	} {
		got, err := ParseFormat(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Fatalf("ParseFormat(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Fatalf("ParseFormat(%q) accepted", tc.in)
		}
	}
	if got := FormatBinary.ContentType(); got != wire.ContentType {
		t.Fatalf("binary content type %q", got)
	}
	if got := FormatJSON.ContentType(); got != "application/json" {
		t.Fatalf("json content type %q", got)
	}
}
