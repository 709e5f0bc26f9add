package server

import (
	"bytes"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/smart"
	"disksig/internal/wire"
)

// binaryObs builds the observations matching ingestBody's JSON shape:
// all values zero except the score in the RRER slot.
func binaryObs(recs ...[3]any) []fleet.Observation {
	obs := make([]fleet.Observation, len(recs))
	for i, r := range recs {
		var v smart.Values
		v[smart.RRER] = r[2].(float64)
		obs[i] = fleet.Observation{
			Serial: r[0].(string),
			Record: smart.Record{Hour: r[1].(int), Values: v},
		}
	}
	return obs
}

// refitCRC rewrites a frame's CRC-32C trailer after a test mutation.
func refitCRC(frame []byte) []byte {
	sum := crc32.Checksum(frame[:len(frame)-4], crc32.MakeTable(crc32.Castagnoli))
	frame[len(frame)-4] = byte(sum)
	frame[len(frame)-3] = byte(sum >> 8)
	frame[len(frame)-2] = byte(sum >> 16)
	frame[len(frame)-1] = byte(sum >> 24)
	return frame
}

func postIngest(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestIngestUnsupportedContentType(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 4}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postIngest(t, ts.URL, "text/plain", []byte("hello"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", resp.StatusCode)
	}
	doc := decodeJSON(t, resp.Body)
	if !strings.Contains(doc["error"].(string), wire.ContentType) {
		t.Fatalf("error %q does not name the supported binary type", doc["error"])
	}

	// Parameters and case on a supported type must still negotiate.
	resp2 := postIngest(t, ts.URL, "Application/JSON; charset=utf-8",
		ingestBody(t, [3]any{"SER-1", 0, 0.9}))
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("parameterized JSON Content-Type: status = %d, want 200", resp2.StatusCode)
	}
}

func TestIngestBinaryHappyPath(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := wire.EncodeBatch(binaryObs(
		[3]any{"SER-1", 0, 0.9},
		[3]any{"SER-1", 1, -0.9}, // escalates straight to critical
		[3]any{"SER-2", 0, 0.9},
	))
	resp := postIngest(t, ts.URL, wire.ContentType, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	doc := decodeJSON(t, resp.Body)
	if doc["ingested"].(float64) != 3 || doc["kept"].(float64) != 3 || doc["quarantined"].(float64) != 0 {
		t.Fatalf("accounting = %v/%v/%v, want 3/3/0", doc["ingested"], doc["kept"], doc["quarantined"])
	}
	alerts := doc["alerts"].([]any)
	if len(alerts) != 1 {
		t.Fatalf("%d alerts, want 1", len(alerts))
	}
	a := alerts[0].(map[string]any)
	if a["serial"] != "SER-1" || a["severity"] != "critical" {
		t.Fatalf("alert = %v, want critical SER-1", a)
	}
}

// TestIngestFormatsEquivalent replays one workload as JSON into one
// server and as binary into another; every response and the resulting
// fleet views must agree — the formats are encodings, not dialects.
func TestIngestFormatsEquivalent(t *testing.T) {
	workload := [][3]any{
		{"SER-A", 0, 0.9}, {"SER-B", 0, 0.8},
		{"SER-A", 1, 0.2}, {"SER-B", 1, -0.7},
		{"SER-A", 2, -0.2}, {"SER-B", 2, -0.9},
	}
	fcfg := fleet.Config{Shards: 4, Monitor: monitor.Config{Smoothing: 2}}
	jsonSrv := httptest.NewServer(testServer(t, fcfg, Config{}).Handler())
	defer jsonSrv.Close()
	binSrv := httptest.NewServer(testServer(t, fcfg, Config{}).Handler())
	defer binSrv.Close()

	for _, rec := range workload {
		jr := postIngest(t, jsonSrv.URL, "application/json", ingestBody(t, rec))
		jdoc := decodeJSON(t, jr.Body)
		jr.Body.Close()
		br := postIngest(t, binSrv.URL, wire.ContentType, wire.EncodeBatch(binaryObs(rec)))
		bdoc := decodeJSON(t, br.Body)
		br.Body.Close()
		if jr.StatusCode != http.StatusOK || br.StatusCode != http.StatusOK {
			t.Fatalf("statuses %d/%d, want 200/200", jr.StatusCode, br.StatusCode)
		}
		for _, k := range []string{"ingested", "kept", "quarantined"} {
			if jdoc[k] != bdoc[k] {
				t.Fatalf("rec %v: ack %s diverges: json %v, binary %v", rec, k, jdoc[k], bdoc[k])
			}
		}
		if len(jdoc["alerts"].([]any)) != len(bdoc["alerts"].([]any)) {
			t.Fatalf("rec %v: alert counts diverge", rec)
		}
	}
	for _, serial := range []string{"SER-A", "SER-B"} {
		jr, err := http.Get(jsonSrv.URL + "/v1/drives/" + serial)
		if err != nil {
			t.Fatal(err)
		}
		jdoc := decodeJSON(t, jr.Body)
		jr.Body.Close()
		br, err := http.Get(binSrv.URL + "/v1/drives/" + serial)
		if err != nil {
			t.Fatal(err)
		}
		bdoc := decodeJSON(t, br.Body)
		br.Body.Close()
		for k, jv := range jdoc {
			if bv := bdoc[k]; jv != bv {
				t.Fatalf("drive %s field %s diverges: json %v, binary %v", serial, k, jv, bv)
			}
		}
	}
}

func TestIngestBinaryUnderJSONContentType(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 4}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := wire.EncodeBatch(binaryObs([3]any{"SER-1", 0, 0.9}))
	resp := postIngest(t, ts.URL, "application/json", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	doc := decodeJSON(t, resp.Body)
	q := doc["quality"].(map[string]any)
	if q["rows_read"].(float64) != 0 || q["rows_kept"].(float64) != 0 || q["rows_quarantined"].(float64) != 0 {
		t.Fatalf("ledger rows = %v/%v/%v, want 0/0/0 (nothing ingested)",
			q["rows_read"], q["rows_kept"], q["rows_quarantined"])
	}
	if byKind := q["by_kind"].(map[string]any); byKind["malformed-row"].(float64) != 1 {
		t.Fatalf("by_kind = %v, want malformed-row=1", byKind)
	}
	// The store's cumulative ledger must be untouched: the batch never
	// reached it.
	if rep := srv.store.Quality(); rep.RowsRead != 0 || !rep.Clean() {
		t.Fatalf("store ledger touched by rejected batch: %+v", rep)
	}
}

func TestIngestBinaryCorruptFrame(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 4}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := wire.EncodeBatch(binaryObs([3]any{"SER-1", 0, 0.9}, [3]any{"SER-2", 0, 0.8}))
	body[len(body)/2] ^= 0x10 // flip a payload bit; CRC catches it
	resp := postIngest(t, ts.URL, wire.ContentType, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	doc := decodeJSON(t, resp.Body)
	if !strings.Contains(doc["error"].(string), "checksum") {
		t.Fatalf("error %q does not name the checksum failure", doc["error"])
	}
	q := doc["quality"].(map[string]any)
	if byKind := q["by_kind"].(map[string]any); byKind["malformed-row"].(float64) != 1 {
		t.Fatalf("by_kind = %v, want malformed-row=1", byKind)
	}
	if srv.store.Tracked() != 0 {
		t.Fatalf("%d drives tracked after rejected frame, want 0", srv.store.Tracked())
	}
}

// TestIngestBinaryRejectionNamesOnlyTheFrameDefect: a frame whose first
// record is quarantined (an empty serial) and whose second is torn is
// rejected whole, and its 400 ledger names only the framing defect, as
// the router's does for the same frame: nothing was read into the
// store, so no row is counted.
func TestIngestBinaryRejectionNamesOnlyTheFrameDefect(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 4}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	frame := []byte{wire.Version, 2, 0, 0, 0, // version, two records
		0, 0, 0, 0, 0, 0, 0, 0, // record 0: empty serial, hour 0, no triples
		5, 0, 0, 0, 0, 0, 0, 0, 'S', 'E', 'R', // record 1: a 5-byte serial torn after 3
		0, 0, 0, 0} // CRC trailer
	resp := postIngest(t, ts.URL, wire.ContentType, refitCRC(frame))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	q := decodeJSON(t, resp.Body)["quality"].(map[string]any)
	want := map[string]any{"by_kind": map[string]any{"truncated-input": 1.0},
		"rows_kept": 0.0, "rows_quarantined": 0.0, "rows_read": 0.0}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("400 ledger = %v, want %v", q, want)
	}
}

// TestIngestBinaryRecordQuarantine fault-injects an infinite value into
// one record of a three-record frame: that record is quarantined, the
// others land, and ingested = kept + quarantined holds.
func TestIngestBinaryRecordQuarantine(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 4}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := wire.EncodeBatch(binaryObs(
		[3]any{"SER-1", 0, 0.9}, [3]any{"SER-2", 0, 0.8}, [3]any{"SER-3", 0, 0.7},
	))
	// Each record is a 5-byte header + 5-byte serial + 12 triples; patch
	// the value bits of the middle record's first triple to +Inf.
	const recSize = 2 + 4 + 2 + 5 + 12*10
	off := 1 + 4 + recSize + (2 + 4 + 2 + 5) + 2
	bits := math.Float64bits(math.Inf(1))
	for k := 0; k < 8; k++ {
		body[off+k] = byte(bits >> (8 * k))
	}
	refitCRC(body)

	resp := postIngest(t, ts.URL, wire.ContentType, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	doc := decodeJSON(t, resp.Body)
	if doc["ingested"].(float64) != 3 || doc["kept"].(float64) != 2 || doc["quarantined"].(float64) != 1 {
		t.Fatalf("accounting = %v/%v/%v, want 3/2/1", doc["ingested"], doc["kept"], doc["quarantined"])
	}
	q := doc["quality"].(map[string]any)
	if byKind := q["by_kind"].(map[string]any); byKind["non-finite"].(float64) != 1 {
		t.Fatalf("by_kind = %v, want non-finite=1", byKind)
	}
	if srv.store.Tracked() != 2 {
		t.Fatalf("%d drives tracked, want 2 (SER-2 quarantined)", srv.store.Tracked())
	}
}

// TestIngestBinaryBodyLimit pins the MaxBytesReader boundary on the
// binary path: a body exactly at the limit is served, one byte over is
// shed with 413.
func TestIngestBinaryBodyLimit(t *testing.T) {
	body := wire.EncodeBatch(binaryObs([3]any{"SER-1", 0, 0.9}, [3]any{"SER-2", 0, 0.8}))
	for _, tc := range []struct {
		name  string
		limit int64
		want  int
	}{
		{"at limit", int64(len(body)), http.StatusOK},
		{"one under", int64(len(body)) - 1, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := testServer(t, fleet.Config{Shards: 4}, Config{MaxBodyBytes: tc.limit})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			resp := postIngest(t, ts.URL, wire.ContentType, body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("limit %d: status = %d, want %d", tc.limit, resp.StatusCode, tc.want)
			}
		})
	}
}
