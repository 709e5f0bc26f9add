package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/server"
)

// stubServer serves a fixed status and body on every path.
func stubServer(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestHTTPHelpersUnreachable(t *testing.T) {
	// A server started and immediately closed yields a connect error on
	// every helper's request path.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	url := dead.URL

	if _, err := ReadyStatus(url); err == nil {
		t.Error("ReadyStatus against a dead server succeeded")
	}
	if _, err := AdminRetrain(url); err == nil {
		t.Error("AdminRetrain against a dead server succeeded")
	}
	if err := AdminSnapshot(url); err == nil {
		t.Error("AdminSnapshot against a dead server succeeded")
	}
	if _, err := ActiveModelVersion(url); err == nil {
		t.Error("ActiveModelVersion against a dead server succeeded")
	}
	if _, _, _, err := MetricsInvariant(url, -1); err == nil {
		t.Error("MetricsInvariant against a dead server succeeded")
	}
}

func TestHTTPHelpersNon200(t *testing.T) {
	srv := stubServer(t, http.StatusInternalServerError, "boom")
	if _, err := AdminRetrain(srv.URL); err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Errorf("AdminRetrain on 500 = %v, want status error", err)
	}
	if err := AdminSnapshot(srv.URL); err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Errorf("AdminSnapshot on 500 = %v, want status error", err)
	}
	if _, err := ActiveModelVersion(srv.URL); err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Errorf("ActiveModelVersion on 500 = %v, want status error", err)
	}
}

func TestAdminRetrainDecodeError(t *testing.T) {
	srv := stubServer(t, http.StatusOK, "not json")
	if _, err := AdminRetrain(srv.URL); err == nil || !strings.Contains(err.Error(), "decoding retrain result") {
		t.Fatalf("AdminRetrain on malformed body = %v, want decode error", err)
	}
}

func TestMetricsInvariantViolations(t *testing.T) {
	// Ledger broken: ingested != kept + quarantined.
	broken := stubServer(t, http.StatusOK, `{"ingest":{"rows_ingested":10,"rows_kept":3,"rows_quarantined":3}}`)
	if _, _, _, err := MetricsInvariant(broken.URL, -1); err == nil || !strings.Contains(err.Error(), "invariant violated") {
		t.Fatalf("MetricsInvariant on broken ledger = %v, want invariant error", err)
	}

	// Ledger consistent but the total disagrees with the expectation.
	short := stubServer(t, http.StatusOK, `{"ingest":{"rows_ingested":6,"rows_kept":3,"rows_quarantined":3}}`)
	if _, _, _, err := MetricsInvariant(short.URL, 10); err == nil || !strings.Contains(err.Error(), "want 10") {
		t.Fatalf("MetricsInvariant on short count = %v, want count error", err)
	}
	if in, kept, q, err := MetricsInvariant(short.URL, 6); err != nil || in != 6 || kept != 3 || q != 3 {
		t.Fatalf("MetricsInvariant on matching count = %d/%d/%d, %v", in, kept, q, err)
	}
}

func TestReportWriteFileError(t *testing.T) {
	rep := &Report{Schema: "disksig/loadgen/v1"}
	bad := filepath.Join(t.TempDir(), "no-such-dir", "report.json")
	if err := rep.WriteFile(bad); err == nil {
		t.Fatalf("WriteFile(%q) succeeded, want error", bad)
	}
}

func TestScenarioConfigClientsDefault(t *testing.T) {
	if got := (ScenarioConfig{}).clients(); got != 4 {
		t.Errorf("zero-config clients() = %d, want 4", got)
	}
	if got := (ScenarioConfig{Clients: 7}).clients(); got != 7 {
		t.Errorf("clients() = %d, want 7", got)
	}
}

func TestQuantilesEmpty(t *testing.T) {
	if q := quantiles(nil); q != (Quantiles{}) {
		t.Errorf("quantiles(nil) = %+v, want zero value", q)
	}
}

func TestCompareStatesNamesMissingDrive(t *testing.T) {
	want := &fleet.State{Drives: []fleet.DriveEntry{
		{Serial: "a", State: monitor.DriveState{Tracked: true, LastHour: 1}},
		{Serial: "b", State: monitor.DriveState{Tracked: true, LastHour: 1}},
	}}
	got := &fleet.State{Drives: []fleet.DriveEntry{
		{Serial: "a", State: monitor.DriveState{Tracked: true, LastHour: 1}},
	}}
	err := CompareStates("want", "got", want, got)
	if err == nil || !strings.Contains(err.Error(), "drive b missing") {
		t.Fatalf("CompareStates = %v, want missing-drive diagnosis", err)
	}
}

func TestCompareStatesQualityOnlyDiff(t *testing.T) {
	// Same drives, only the fleet-level ledger differs: the per-drive
	// scan finds nothing, and the diagnosis falls through to the totals.
	drives := []fleet.DriveEntry{{Serial: "a", State: monitor.DriveState{Tracked: true, LastHour: 1}}}
	want := &fleet.State{Drives: drives}
	got := &fleet.State{Drives: drives}
	got.Quality.RowsRead = 99
	err := CompareStates("want", "got", want, got)
	if err == nil || !strings.Contains(err.Error(), "fleet state mismatch") {
		t.Fatalf("CompareStates = %v, want mismatch on quality ledger", err)
	}
	if strings.Contains(err.Error(), "differing drive") || strings.Contains(err.Error(), "missing") {
		t.Fatalf("CompareStates blamed a drive for a ledger-only diff: %v", err)
	}
}

func TestMixedScenarioConfigErrors(t *testing.T) {
	ctx := context.Background()
	dep := testDeployment(t)
	if rep, err := RunBackblaze(ctx, dep, ScenarioConfig{}); err == nil {
		t.Errorf("RunBackblaze without a path passed: %+v", rep)
	}
	cfg := ScenarioConfig{BackblazePath: filepath.Join(t.TempDir(), "missing.csv")}
	if rep, err := RunBackblaze(ctx, dep, cfg); err == nil {
		t.Errorf("RunBackblaze on a missing file passed: %+v", rep)
	}
	// A present but unreadable dump (torn mid-quote) must surface the
	// reader's error, not a partial replay.
	bad := filepath.Join(t.TempDir(), "torn.csv")
	if err := os.WriteFile(bad, []byte("date,serial_number,failure\n\"unterminated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := RunBackblaze(ctx, dep, ScenarioConfig{BackblazePath: bad}); err == nil {
		t.Errorf("RunBackblaze on a torn dump passed: %+v", rep)
	}
}

func TestCheckClassSummaryViolations(t *testing.T) {
	serve := func(body string) string {
		return stubServer(t, http.StatusOK, body).URL
	}
	var mrep MixedReport
	for name, body := range map[string]string{
		"missing class": `{"drives":2,"by_class":{"hdd":{"drives":2,"by_severity":{"watch":2}}}}`,
		"empty class":   `{"drives":2,"by_class":{"hdd":{"drives":2,"by_severity":{"watch":2}},"ssd":{"drives":0,"by_severity":{}}}}`,
		"all healthy":   `{"drives":4,"by_class":{"hdd":{"drives":2,"by_severity":{"watch":2}},"ssd":{"drives":2,"by_severity":{"healthy":2}}}}`,
		"bad total":     `{"drives":9,"by_class":{"hdd":{"drives":2,"by_severity":{"watch":2}},"ssd":{"drives":2,"by_severity":{"warning":2}}}}`,
	} {
		if err := checkClassSummary(serve(body), &mrep); err == nil {
			t.Errorf("%s: checkClassSummary passed", name)
		}
	}
	ok := `{"drives":4,"by_class":{"hdd":{"drives":2,"by_severity":{"watch":2}},"ssd":{"drives":2,"by_severity":{"healthy":1,"critical":1}}}}`
	if err := checkClassSummary(serve(ok), &mrep); err != nil {
		t.Errorf("valid summary rejected: %v", err)
	}
	if mrep.HDDTracked != 2 || mrep.SSDTracked != 2 {
		t.Errorf("tracked counts = %d/%d, want 2/2", mrep.HDDTracked, mrep.SSDTracked)
	}
}

// TestHarnessStopPromptAndRepeatable stops harnesses the moment they
// start, usually before Serve has built its http.Server, and stops each
// one twice: both calls must return promptly, with the same result.
func TestHarnessStopPromptAndRepeatable(t *testing.T) {
	dep := testDeployment(t)
	for i := 0; i < 20; i++ {
		h, err := StartHarness(dep.Models, dep.Norm, dep.fleetConfig(), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan [2]error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			done <- [2]error{h.Stop(ctx), h.Stop(ctx)}
		}()
		select {
		case errs := <-done:
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("try %d: Stop = %v, then %v", i, errs[0], errs[1])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("try %d: Stop right after StartHarness hung", i)
		}
	}
}
