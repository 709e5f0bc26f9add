package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"disksig/internal/core"
	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/regression"
	"disksig/internal/smart"
)

// rampPredictor scores records by their RRER value directly (same idiom
// as the monitor and fleet tests).
type rampPredictor struct{}

func (rampPredictor) Predict(x []float64) float64 { return x[smart.RRER] }

// testModels is the ramp model set over a [-1, 1] normalizer.
func testModels() ([]monitor.GroupModel, *smart.Normalizer) {
	norm := smart.NewNormalizer()
	var lo, hi smart.Values
	for a := range lo {
		lo[a] = -1
		hi[a] = 1
	}
	norm.Observe(lo)
	norm.Observe(hi)
	models := []monitor.GroupModel{{
		Group:     1,
		Type:      core.Logical,
		Form:      regression.FormQuadratic,
		WindowD:   12,
		Predictor: rampPredictor{},
	}}
	return models, norm
}

func testStore(t testing.TB, cfg fleet.Config) *fleet.Store {
	t.Helper()
	models, norm := testModels()
	s, err := fleet.New(models, norm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testServer(t testing.TB, fcfg fleet.Config, scfg Config) *Server {
	t.Helper()
	return New(testStore(t, fcfg), scfg)
}

// ingestBody builds a JSON ingest request: one record per (serial, hour,
// score) triple, score carried in the RRER slot.
func ingestBody(t *testing.T, recs ...[3]any) []byte {
	t.Helper()
	type rec struct {
		Serial string     `json:"serial"`
		Hour   int        `json:"hour"`
		Values []*float64 `json:"values"`
	}
	var rs []rec
	for _, r := range recs {
		vals := make([]*float64, int(smart.NumAttrs))
		for a := range vals {
			z := 0.0
			vals[a] = &z
		}
		score := r[2].(float64)
		vals[smart.RRER] = &score
		rs = append(rs, rec{Serial: r[0].(string), Hour: r[1].(int), Values: vals})
	}
	body, err := json.Marshal(map[string]any{"records": rs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func decodeJSON(t *testing.T, r io.Reader) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestIngestHappyPath(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 4, Monitor: monitor.Config{Smoothing: 1}}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := ingestBody(t,
		[3]any{"SER-1", 0, 0.9},
		[3]any{"SER-1", 1, -0.9}, // escalates straight to critical
		[3]any{"SER-2", 0, 0.9},
	)
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
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
	if a["serial"] != "SER-1" || a["severity"] != "critical" || a["type"] != "logical" {
		t.Fatalf("alert = %v", a)
	}
	if a["hours_to_failure"] == nil {
		t.Fatal("critical alert has null hours_to_failure")
	}

	// Drive query: known serial.
	resp2, err := http.Get(ts.URL + "/v1/drives/SER-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("drive status = %d, want 200", resp2.StatusCode)
	}
	d := decodeJSON(t, resp2.Body)
	if d["serial"] != "SER-1" || d["severity"] != "critical" || d["last_hour"].(float64) != 1 {
		t.Fatalf("drive = %v", d)
	}

	// Unknown serial → 404.
	resp3, err := http.Get(ts.URL + "/v1/drives/NOPE")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown drive status = %d, want 404", resp3.StatusCode)
	}

	// Summary.
	resp4, err := http.Get(ts.URL + "/v1/fleet/summary?top=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	sum := decodeJSON(t, resp4.Body)
	if sum["drives"].(float64) != 2 {
		t.Fatalf("summary drives = %v, want 2", sum["drives"])
	}
	atRisk := sum["at_risk"].([]any)
	if len(atRisk) != 1 || atRisk[0].(map[string]any)["serial"] != "SER-1" {
		t.Fatalf("at_risk = %v", atRisk)
	}

	// Healthz.
	resp5, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp5.Body.Close()
	hz := decodeJSON(t, resp5.Body)
	if resp5.StatusCode != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp5.StatusCode, hz)
	}
}

func TestIngestQuarantineAccounting(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 2}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One clean record, one with a null (missing → NaN) value, one with
	// no serial, one with a short values array.
	clean := ingestBody(t, [3]any{"SER-1", 0, 0.9})
	var req map[string]any
	if err := json.Unmarshal(clean, &req); err != nil {
		t.Fatal(err)
	}
	recs := req["records"].([]any)
	nullVal := map[string]any{"serial": "SER-2", "hour": 0, "values": make([]any, int(smart.NumAttrs))}
	noSerial := map[string]any{"hour": 0, "values": make([]any, int(smart.NumAttrs))}
	short := map[string]any{"serial": "SER-3", "hour": 0, "values": []any{1.0, 2.0}}
	req["records"] = append(recs, nullVal, noSerial, short)
	body, _ := json.Marshal(req)

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc := decodeJSON(t, resp.Body)
	if doc["ingested"].(float64) != 4 || doc["kept"].(float64) != 1 || doc["quarantined"].(float64) != 3 {
		t.Fatalf("accounting = %v/%v/%v, want 4/1/3", doc["ingested"], doc["kept"], doc["quarantined"])
	}
	byKind := doc["quality"].(map[string]any)["by_kind"].(map[string]any)
	for _, kind := range []string{"non-finite", "bad-field", "short-row"} {
		if byKind[kind] == nil {
			t.Errorf("ledger missing %q: %v", kind, byKind)
		}
	}

	// Metrics reflect the invariant ingested = kept + quarantined.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	m := decodeJSON(t, mresp.Body)
	ing := m["ingest"].(map[string]any)
	if ing["rows_ingested"].(float64) != ing["rows_kept"].(float64)+ing["rows_quarantined"].(float64) {
		t.Fatalf("metrics invariant violated: %v", ing)
	}
	if ing["rows_ingested"].(float64) != 4 {
		t.Fatalf("rows_ingested = %v, want 4", ing["rows_ingested"])
	}
}

func TestIngestMalformedJSON(t *testing.T) {
	srv := testServer(t, fleet.Config{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(`{"records": [{]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	doc := decodeJSON(t, resp.Body)
	q, ok := doc["quality"].(map[string]any)
	if !ok {
		t.Fatalf("400 response has no quarantine ledger: %v", doc)
	}
	byKind := q["by_kind"].(map[string]any)
	if byKind["malformed-row"] == nil {
		t.Fatalf("ledger does not name malformed-row: %v", byKind)
	}
}

func TestIngestOversizedBody(t *testing.T) {
	srv := testServer(t, fleet.Config{}, Config{MaxBodyBytes: 128})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := ingestBody(t,
		[3]any{"SER-1", 0, 0.9}, [3]any{"SER-2", 0, 0.9}, [3]any{"SER-3", 0, 0.9},
		[3]any{"SER-4", 0, 0.9}, [3]any{"SER-5", 0, 0.9},
	)
	if len(body) <= 128 {
		t.Fatalf("test body is only %d bytes, need > 128", len(body))
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestLoadShedding(t *testing.T) {
	srv := testServer(t, fleet.Config{}, Config{MaxInFlight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHoldIngest = func() {
		close(entered)
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First request occupies the only slot...
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
			bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.9})))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-entered

	// ...so the second is shed with 429 (API routes only; healthz and
	// metrics stay reachable during overload).
	resp, err := http.Get(ts.URL + "/v1/fleet/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status under load = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s = %d during overload, want 200", path, r.StatusCode)
		}
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", code)
	}

	// The shed counter moved.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	m := decodeJSON(t, mresp.Body)
	if shed := m["requests"].(map[string]any)["shed"].(float64); shed != 1 {
		t.Fatalf("shed = %v, want 1", shed)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv := testServer(t, fleet.Config{}, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHoldIngest = func() {
		close(entered)
		<-release
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	url := "http://" + l.Addr().String()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/ingest", "application/json",
			bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.9})))
		if err != nil {
			reqDone <- -1
			return
		}
		defer resp.Body.Close()
		io.ReadAll(resp.Body)
		reqDone <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must block while the request is in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if code := <-reqDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200 (drained)", code)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve = %v, want http.ErrServerClosed", err)
	}
}

func TestSummaryEvictsStaleDrives(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 2, TTLHours: 10}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := ingestBody(t, [3]any{"OLD-1", 0, 0.9}, [3]any{"NEW-1", 100, 0.9})
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sresp, err := http.Get(ts.URL + "/v1/fleet/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sum := decodeJSON(t, sresp.Body)
	if sum["evicted_now"].(float64) != 1 || sum["drives"].(float64) != 1 {
		t.Fatalf("evicted_now = %v, drives = %v; want 1 and 1", sum["evicted_now"], sum["drives"])
	}
}

// TestSummaryTopParameter: ?top= is a decimal n >= 0 and an empty value
// means wire.DefaultTop; anything else is a 400, never a numeric prefix
// read as the whole value.
func TestSummaryTopParameter(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 2}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var recs [][3]any
	for d := 0; d < 12; d++ {
		recs = append(recs, [3]any{fmt.Sprintf("TOP-%02d", d), 0, 0.9})
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(ingestBody(t, recs...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, tc := range []struct {
		top    string
		status int
		atRisk int
	}{
		{"5abc", http.StatusBadRequest, 0}, {"5.9", http.StatusBadRequest, 0},
		{"0x10", http.StatusBadRequest, 0}, {"1e3", http.StatusBadRequest, 0},
		{"-1", http.StatusBadRequest, 0}, {"x", http.StatusBadRequest, 0},
		{"", http.StatusOK, 10}, {"0", http.StatusOK, 0}, {"7", http.StatusOK, 7},
	} {
		resp, err := http.Get(ts.URL + "/v1/fleet/summary?top=" + url.QueryEscape(tc.top))
		if err != nil {
			t.Fatal(err)
		}
		doc := decodeJSON(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("top=%q: status %d, want %d (%v)", tc.top, resp.StatusCode, tc.status, doc)
			continue
		}
		if tc.status == http.StatusOK && len(doc["at_risk"].([]any)) != tc.atRisk {
			t.Errorf("top=%q: %d at-risk drives, want %d", tc.top, len(doc["at_risk"].([]any)), tc.atRisk)
		}
	}
}

func TestMethodAndRouteErrors(t *testing.T) {
	srv := testServer(t, fleet.Config{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Wrong method on a known route.
	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/ingest = %d, want 405", resp.StatusCode)
	}
	// Unknown route under /v1.
	resp2, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nope = %d, want 404", resp2.StatusCode)
	}
	// Bad summary parameter.
	resp3, err := http.Get(ts.URL + "/v1/fleet/summary?top=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad top parameter = %d, want 400", resp3.StatusCode)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	srv := testServer(t, fleet.Config{}, Config{Log: log.New(&buf, "", 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/healthz", "status=200", "dur="} {
		if !strings.Contains(line, want) {
			t.Errorf("access log %q missing %q", line, want)
		}
	}
}

// TestInfiniteDegradationRendersNull: right after a model swap a
// drive's smoothing windows are empty and its degradation is +Inf until
// it reports again. The drive and summary reads render it as null, the
// way hours_to_failure already is, instead of failing to encode.
func TestInfiniteDegradationRendersNull(t *testing.T) {
	srv := testServer(t, fleet.Config{Shards: 2, Monitor: monitor.Config{Smoothing: 2}}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.5}, [3]any{"SER-2", 0, -0.5})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	models, norm := testModels()
	if err := srv.store.SwapModels(monitor.ModelSet{Version: 2, Models: models, Norms: [smart.NumClasses]*smart.Normalizer{smart.HDD: norm}}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return decodeJSON(t, resp.Body)
	}
	if deg, ok := get("/v1/drives/SER-1")["degradation"]; !ok || deg != nil {
		t.Fatalf("degradation after swap = %v (present %v), want null", deg, ok)
	}
	atRisk := get("/v1/fleet/summary")["at_risk"].([]any)
	if len(atRisk) != 2 {
		t.Fatalf("at_risk lists %d drives, want 2", len(atRisk))
	}
	for _, d := range atRisk {
		if deg := d.(map[string]any)["degradation"]; deg != nil {
			t.Fatalf("at_risk degradation after swap = %v, want null", deg)
		}
	}
}
