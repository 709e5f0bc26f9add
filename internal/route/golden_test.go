package route

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/smart"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ with the observed responses")

// TestGoldenRoutedResponses pins the canonical JSON of the router's own
// documents — the merged ingest ack, the merged mixed-class summary and
// the router's 400 — against golden files, so a change to how the
// router merges or renders them shows as a diff. Run with -update to
// regenerate.
func TestGoldenRoutedResponses(t *testing.T) {
	_, m := startClusterOf(t, 3, mixedStore)
	_, ts := startRouter(t, m)

	// Twelve drives of both classes, each healthy at hour 0 and at a
	// distinct degradation at hour 1, so some alert; plus one record with
	// a missing value, which its owner quarantines.
	var obs []fleet.Observation
	for d := 0; d < 12; d++ {
		serial := fmt.Sprintf("gd-%02d", d)
		for h, score := range []float64{0.9, -0.95 + 0.15*float64(d)} {
			o := testObs(serial, h, score)
			if d%3 == 0 {
				o.Class = smart.SSD
			}
			obs = append(obs, o)
		}
	}
	batch := append(bytes.TrimSuffix(jsonBody(t, obs), []byte("]}")),
		`,{"serial":"gd-q","hour":0,"values":[null,0,0,0,0,0,0,0,0,0,0,0]}]}`...)

	for _, tc := range []struct {
		name, path, golden string
		body               []byte // POSTed as JSON when set; otherwise a GET
		status             int
	}{
		{"ack", "/v1/ingest", "routed_ack.golden.json", batch, http.StatusOK},
		{"summary", "/v1/fleet/summary?top=3", "routed_summary.golden.json", nil, http.StatusOK},
		{"rejection", "/v1/ingest", "routed_rejection.golden.json", []byte(`{"records": [`), http.StatusBadRequest},
	} {
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
			if resp.StatusCode != tc.status {
				t.Fatalf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
			}
			got := canonicalJSON(t, resp.Body)
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
				t.Fatalf("%v (run 'go test ./internal/route -run TestGoldenRoutedResponses -update' to create it)", err)
			}
			if !bytes.Equal(got, want) {
				line, g, w := firstDiff(got, want)
				t.Fatalf("%s diverges from %s at line %d: got %q, want %q (run with -update if the change is intentional)",
					tc.path, gpath, line, g, w)
			}
		})
	}
}

// canonicalJSON decodes a document and re-encodes it with sorted keys
// and fixed indentation, so a golden comparison does not depend on the
// order a struct or a map happened to render its keys in.
func canonicalJSON(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var doc any
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// firstDiff returns the first line (1-based) where two texts differ and
// that line of each; a text that ends first reads as "".
func firstDiff(got, want []byte) (int, string, string) {
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w || i >= len(gl) && i >= len(wl) {
			return i + 1, g, w
		}
	}
}
