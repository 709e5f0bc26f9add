package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ with the observed responses")

// Snapshots gob-encode the store, predictors included, so the test
// predictor must be registered like any production model form.
func init() { gob.Register(rampPredictor{}) }

// TestGoldenResponses pins the canonical JSON of the read API —
// /v1/fleet/summary, /v1/drives/{serial} and /metrics (including the
// persist and latency sections) — and of the ingest ack and the 400
// body against golden files. The store is fed a fixed request sequence,
// so everything except timing-derived leaves is byte-deterministic;
// those leaves are scrubbed on both sides before comparison. The ingest
// cases run after the reads, so they do not change what the reads see.
// Run with -update to regenerate.
func TestGoldenResponses(t *testing.T) {
	dir := t.TempDir()
	mgr, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := testServer(t,
		fleet.Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}},
		Config{Persist: mgr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A fixed ingest sequence: one healthy drive, one that degrades to
	// critical (alerting), one quarantined record.
	body := ingestBody(t,
		[3]any{"SER-OK", 0, 0.9},
		[3]any{"SER-OK", 1, 0.9},
		[3]any{"SER-BAD", 0, 0.9},
		[3]any{"SER-BAD", 1, -0.9},
	)
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest: status %d", resp.StatusCode)
	}
	// Quarantine path: a record with a missing (null) value.
	quarantine := []byte(`{"records":[{"serial":"SER-Q","hour":0,"values":[null,0,0,0,0,0,0,0,0,0,0,0]}]}`)
	resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(quarantine))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A snapshot so the persist section shows a full cycle.
	resp, err = http.Post(ts.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin snapshot: status %d", resp.StatusCode)
	}

	// An ingest ack with an alert (SER-ACK degrades to critical) and a
	// quarantined record, and a body the decoder rejects whole.
	ack := ingestBody(t, [3]any{"SER-ACK", 0, 0.9}, [3]any{"SER-ACK", 1, -0.9})
	ack = append(bytes.TrimSuffix(ack, []byte("]}")),
		`,{"serial":"SER-Q2","hour":0,"values":[null,0,0,0,0,0,0,0,0,0,0,0]}]}`...)

	cases := []struct {
		name   string
		path   string
		golden string
		// body, when set, is POSTed as JSON instead of a GET.
		body   []byte
		status int // 0 means 200
		// scrub lists dotted paths whose leaves are timing-dependent.
		scrub []string
	}{
		{name: "summary", path: "/v1/fleet/summary?top=5", golden: "summary.golden.json"},
		{name: "drive", path: "/v1/drives/SER-BAD", golden: "drive.golden.json"},
		{name: "metrics", path: "/metrics", golden: "metrics.golden.json", scrub: []string{
			"latency.buckets_ms",
			"latency.mean_us",
			"persist.last_snapshot_ms",
			"persist.last_snapshot_bytes",
		}},
		{name: "ack", path: "/v1/ingest", golden: "ack.golden.json", body: ack},
		{name: "rejection", path: "/v1/ingest", golden: "rejection.golden.json",
			body: []byte(`{"records": [`), status: http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.body != nil {
				resp, err = http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(tc.body))
			} else {
				resp, err = http.Get(ts.URL + tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if want := max(tc.status, http.StatusOK); resp.StatusCode != want {
				t.Fatalf("%s: status %d, want %d", tc.path, resp.StatusCode, want)
			}
			got := canonicalJSON(t, resp.Body, tc.scrub)

			gpath := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(gpath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", gpath)
				return
			}
			want, err := os.ReadFile(gpath)
			if err != nil {
				t.Fatalf("%v (run 'go test ./internal/server -run TestGoldenResponses -update' to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("GET %s diverges from %s:\n%s\n(run with -update if the change is intentional)",
					tc.path, gpath, diffLines(string(want), string(got)))
			}
		})
	}
}

// canonicalJSON decodes, scrubs the named paths, and re-encodes with
// sorted keys and fixed indentation, so golden comparisons are
// insensitive to map iteration order.
func canonicalJSON(t *testing.T, r interface{ Read([]byte) (int, error) }, scrub []string) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, path := range scrub {
		scrubPath(doc, strings.Split(path, "."))
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// scrubPath replaces the leaf at a dotted path with a fixed marker (a
// missing path is fine: the persist section only exists when
// persistence is on).
func scrubPath(doc map[string]any, path []string) {
	for len(path) > 1 {
		next, ok := doc[path[0]].(map[string]any)
		if !ok {
			return
		}
		doc, path = next, path[1:]
	}
	if _, ok := doc[path[0]]; ok {
		doc[path[0]] = "<scrubbed>"
	}
}

// diffLines renders a small line diff of two texts.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	shown := 0
	for i := 0; i < n && shown < 20; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "  line %d: want %q, got %q\n", i+1, w, g)
			shown++
		}
	}
	return b.String()
}
