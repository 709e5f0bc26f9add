package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/wire"
)

// sizedIngestBody builds a syntactically valid ingest body of exactly n
// bytes by padding the record's serial. The padding sits INSIDE the
// JSON value, so a decoder must read every byte to finish parsing —
// trailing whitespace would not do, since Decode stops at the end of
// the value and never touches bytes beyond it.
func sizedIngestBody(t *testing.T, n int) []byte {
	t.Helper()
	shape := func(pad int) []byte {
		return []byte(fmt.Sprintf(
			`{"records":[{"serial":"%s","hour":0,"values":[0,0,0,0,0,0,0,0,0,0,0,0]}]}`,
			strings.Repeat("a", pad)))
	}
	base := len(shape(0))
	if n < base {
		t.Fatalf("cannot build a %d-byte body; minimum is %d", n, base)
	}
	body := shape(n - base)
	if len(body) != n {
		t.Fatalf("built %d bytes, want %d", len(body), n)
	}
	return body
}

// TestIngestBodySizeBoundary pins the MaxBytesReader limit exactly: a
// body of MaxBodyBytes is accepted, one byte more is 413.
func TestIngestBodySizeBoundary(t *testing.T) {
	const limit = 512
	srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}},
		Config{MaxBodyBytes: limit})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		size int
		want int
		// earlyEnd pads with whitespace after a short JSON value instead
		// of inside it, so the value ends long before the limit does.
		earlyEnd bool
	}{
		{name: "at-limit", size: limit, want: http.StatusOK},
		{name: "one-over", size: limit + 1, want: http.StatusRequestEntityTooLarge},
		{name: "value-ends-early-one-over", size: limit + 1, want: http.StatusRequestEntityTooLarge, earlyEnd: true},
		{name: "value-ends-early-16x-over", size: 16 * limit, want: http.StatusRequestEntityTooLarge, earlyEnd: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := sizedIngestBody(t, tc.size)
			if tc.earlyEnd {
				short := sizedIngestBody(t, 80)
				body = append(short, bytes.Repeat([]byte(" "), tc.size-len(short))...)
			}
			resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%d-byte body: status %d, want %d", tc.size, resp.StatusCode, tc.want)
			}
			if tc.want != http.StatusOK {
				return
			}
			doc := decodeJSON(t, resp.Body)
			if doc["ingested"].(float64) != 1 {
				t.Fatalf("at-limit body ingested %v records, want 1", doc["ingested"])
			}
		})
	}
}

// TestIngestMalformedBodies drives the 400/200 edges of the ingest
// decoder: empty batches are fine, unknown fields anywhere are not.
func TestIngestMalformedBodies(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
		// wantIngested only checked for 200s.
		wantIngested float64
	}{
		{name: "empty-batch", body: `{"records":[]}`, want: http.StatusOK, wantIngested: 0},
		{name: "missing-records-key", body: `{}`, want: http.StatusOK, wantIngested: 0},
		{name: "unknown-top-level-field", body: `{"records":[],"extre":1}`, want: http.StatusBadRequest},
		{name: "unknown-record-field",
			body: `{"records":[{"serial":"X","hour":0,"values":[0,0,0,0,0,0,0,0,0,0,0,0],"huor":3}]}`,
			want: http.StatusBadRequest},
		{name: "not-json", body: `{not json`, want: http.StatusBadRequest},
		{name: "wrong-shape", body: `{"records":42}`, want: http.StatusBadRequest},
		{name: "empty-body", body: ``, want: http.StatusBadRequest},
		// Bodies encoding/json would have acknowledged while dropping
		// part of them: a second top-level value, trailing bytes, and
		// repeated keys (last-wins, or merged element by element).
		{name: "two-top-level-values",
			body: `{"records":[{"serial":"A","hour":0,"values":[0,0,0,0,0,0,0,0,0,0,0,0]}]}` +
				`{"records":[{"serial":"B","hour":0,"values":[0,0,0,0,0,0,0,0,0,0,0,0]}]}`,
			want: http.StatusBadRequest},
		{name: "trailing-garbage", body: `{"records":[]}x`, want: http.StatusBadRequest},
		{name: "repeated-record-field",
			body: `{"records":[{"serial":"A","serial":"B","hour":0,"values":[0,0,0,0,0,0,0,0,0,0,0,0]}]}`,
			want: http.StatusBadRequest},
		{name: "repeated-record-field-case-folded",
			body: `{"records":[{"serial":"A","hour":0,"values":[0,0,0,0,0,0,0,0,0,0,0,0],"Hour":1}]}`,
			want: http.StatusBadRequest},
		{name: "repeated-records-key",
			body: `{"records":[{"serial":"A","hour":0,"values":[0,0,0,0,0,0,0,0,0,0,0,0]}],"records":[{"hour":5}]}`,
			want: http.StatusBadRequest},
		{name: "top-level-null", body: `null`, want: http.StatusOK, wantIngested: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			doc := decodeJSON(t, resp.Body)
			if tc.want == http.StatusOK {
				if doc["ingested"].(float64) != tc.wantIngested {
					t.Fatalf("ingested %v, want %v", doc["ingested"], tc.wantIngested)
				}
			} else if doc["error"] == nil {
				t.Fatal("400 response has no error field")
			}
		})
	}
	if n := srv.store.Tracked(); n != 0 {
		t.Fatalf("%d drives stored from bodies that ingest nothing", n)
	}
}

// TestIngestJSONQuarantinesOverlongSerial sends one JSON batch with a
// serial past wire.MaxSerialLen beside a clean record. The long record
// is quarantined as the binary frame quarantines it, and the clean one
// is kept: a durable node must not fail the whole batch on the WAL's
// serial cap, and a plain node must not store what a durable one
// cannot log.
func TestIngestJSONQuarantinesOverlongSerial(t *testing.T) {
	long := strings.Repeat("L", wire.MaxSerialLen+1)
	body := ingestBody(t, [3]any{long, 0, 0.5}, [3]any{"SER-1", 0, 0.5})
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var scfg Config
			if durable {
				mgr, err := persist.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer mgr.Close()
				scfg.Persist = mgr
			}
			srv := testServer(t, fleet.Config{Shards: 2}, scfg)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200", resp.StatusCode)
			}
			var ack wire.Ack
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
			if ack.Ingested != 2 || ack.Kept != 1 || ack.Quarantined != 1 || ack.Quality.ByKind["bad-field"] != 1 {
				t.Fatalf("ack %+v, want 2 ingested, 1 kept, 1 bad-field quarantined", ack)
			}
			if _, ok := srv.store.Drive("SER-1"); !ok || srv.store.Tracked() != 1 {
				t.Fatalf("store tracks %d drives, want only SER-1", srv.store.Tracked())
			}
		})
	}
}

// TestShedResponseFormat holds one request in flight on a 1-slot server
// and checks the shed response end-to-end: 429, a Retry-After header
// that parses as an integer >= 1, and a JSON error body.
func TestShedResponseFormat(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}},
		Config{MaxInFlight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHoldIngest = func() { close(entered); <-release }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
			bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.5})))
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered

	resp, err := http.Get(ts.URL + "/v1/fleet/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After %d, want >= 1", secs)
	}
	doc := decodeJSON(t, resp.Body)
	if doc["error"] == nil {
		t.Fatal("shed response has no error field")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMethodNegotiation sweeps HEAD and OPTIONS (plus a wrong method)
// across every route. Go 1.22 method patterns answer HEAD on GET routes
// and reject everything unregistered with 405 + Allow.
func TestMethodNegotiation(t *testing.T) {
	dir := t.TempDir()
	mgr, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}},
		Config{Persist: mgr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Seed one drive so GET routes have something to serve.
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.5})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	routes := []struct {
		path string
		// allowed is the registered method; HEAD is implicitly allowed on
		// GET routes by the Go 1.22 mux.
		allowed string
	}{
		{path: "/v1/ingest", allowed: http.MethodPost},
		{path: "/v1/drives/SER-1", allowed: http.MethodGet},
		{path: "/v1/fleet/summary", allowed: http.MethodGet},
		{path: "/v1/admin/snapshot", allowed: http.MethodPost},
		{path: "/healthz", allowed: http.MethodGet},
		{path: "/metrics", allowed: http.MethodGet},
	}
	for _, rt := range routes {
		for _, method := range []string{http.MethodHead, http.MethodOptions, http.MethodDelete} {
			t.Run(method+" "+rt.path, func(t *testing.T) {
				req, err := http.NewRequest(method, ts.URL+rt.path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()

				want := http.StatusMethodNotAllowed
				if method == http.MethodHead && rt.allowed == http.MethodGet {
					want = http.StatusOK
				}
				if resp.StatusCode != want {
					t.Fatalf("%s %s: status %d, want %d", method, rt.path, resp.StatusCode, want)
				}
				if want == http.StatusMethodNotAllowed {
					allow := resp.Header.Get("Allow")
					if !strings.Contains(allow, rt.allowed) {
						t.Fatalf("%s %s: Allow %q does not include %s", method, rt.path, allow, rt.allowed)
					}
				} else if n, _ := resp.Body.Read(make([]byte, 1)); n != 0 {
					t.Fatalf("HEAD %s returned a body", rt.path)
				}
			})
		}
	}

	// Without persistence the admin route does not exist at all.
	srvNoPersist := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 1}}, Config{})
	ts2 := httptest.NewServer(srvNoPersist.Handler())
	defer ts2.Close()
	resp2, err := http.Post(ts2.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("admin snapshot without persistence: status %d, want 404", resp2.StatusCode)
	}
}
